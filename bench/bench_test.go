package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{n: 5, want: 0}, {n: 19, want: 0}, {n: 20, want: 50},
		{n: 99, want: 50}, {n: 100, want: 90}, {n: 132, want: 90},
		{n: 200, want: 95}, {n: 999, want: 95}, {n: 1000, want: 99},
		{n: 9999, want: 99}, {n: 10000, want: 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	for p, want := range map[float64]float64{0: 1, 20: 1, 50: 3, 90: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// An alert whose event time is both the last second of one batch and
// the first of the next belongs to the later batch.
func TestBatchForBoundaryTies(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(int64(1000+s), 0) }
	firsts := []time.Time{at(0), at(10), at(10), at(25)}
	for _, c := range []struct {
		sec, want int
	}{
		{sec: -1, want: -1}, {sec: 0, want: 0}, {sec: 9, want: 0},
		{sec: 10, want: 2}, // batch 1 spans only second 10, and so does the start of batch 2
		{sec: 24, want: 2}, {sec: 25, want: 3}, {sec: 99, want: 3},
	} {
		if got := batchFor(firsts, at(c.sec)); got != c.want {
			t.Errorf("batchFor(second %d) = %d, want %d", c.sec, got, c.want)
		}
	}
}

// A stalled operation must not move later due times: the operations it
// delayed start late and are charged the delay.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 35 * time.Millisecond
	start, late, done := openLoop(6, interval, func(i int) {
		if i == 1 {
			time.Sleep(stall)
		}
	})
	if time.Until(start) > spinWindow {
		t.Errorf("start %v is in the future", start)
	}
	if late[0] > 5*time.Millisecond || late[1] > 5*time.Millisecond {
		t.Errorf("ops before the stall started late: %v", late[:2])
	}
	if done[1] < stall {
		t.Errorf("stalled op finished %v after its due time, want at least %v", done[1], stall)
	}
	// Ops 2, 3 and 4 were due 10, 20 and 30 ms after op 1, inside its stall.
	for i, want := range map[int]time.Duration{2: stall - interval, 3: stall - 2*interval, 4: stall - 3*interval} {
		if late[i] < want || done[i] < want {
			t.Errorf("op %d: late %v, done %v, want both at least %v", i, late[i], done[i], want)
		}
	}
	if late[5] > 5*time.Millisecond {
		t.Errorf("op 5 was due after the stall cleared but started %v late", late[5])
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.10}
	s := func(min, med, max float64) series { return series{Min: min, Median: med, Max: max} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b series
		want verdict
	}{
		{"same", lower, s(0.99, 1, 1.01), s(0.99, 1, 1.01), verdictOK},
		{"worse within bound", lower, s(0.99, 1, 1.01), s(1.04, 1.05, 1.06), verdictOK},
		{"worse beyond bound", lower, s(0.99, 1, 1.01), s(1.19, 1.2, 1.21), verdictRegressed},
		{"throughput down beyond bound", higher, s(99, 100, 101), s(79, 80, 81), verdictRegressed},
		{"throughput up", higher, s(99, 100, 101), s(119, 120, 121), verdictOK},
		{"wide spread, overlapping", lower, s(0.8, 1, 1.3), s(0.9, 1.2, 1.4), verdictUnresolved},
		{"wide spread, every run better", lower, s(0.8, 1, 1.3), s(0.5, 0.6, 0.7), verdictOK},
		{"wide spread, every run worse", lower, s(0.8, 1, 1.3), s(1.4, 1.6, 1.9), verdictRegressed},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsOneOnRegression(t *testing.T) {
	mk := func(rate float64, failed int64) *resultFile {
		e2e := map[string]series{}
		for _, d := range endToEnd {
			e2e[d.Name] = series{Unit: d.Unit, Values: []float64{1}, Median: 1, Min: 1, Max: 1}
		}
		e2e["records_per_s"] = series{Unit: "records/s", Median: rate, Min: rate * 0.99, Max: rate * 1.01}
		return &resultFile{Workloads: []workloadResult{{Name: "serve-bin-flood", Correct: true, Attempted: 10, Failed: failed, EndToEnd: e2e}}}
	}
	var buf bytes.Buffer
	if code := compareResults(mk(100, 0), mk(97, 0), &buf); code != 0 {
		t.Errorf("3%% slower: exit %d, want 0\n%s", code, buf.String())
	}
	if code := compareResults(mk(100, 0), mk(70, 0), &buf); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1", code)
	}
	if code := compareResults(mk(100, 0), mk(100, 1), &buf); code != 1 {
		t.Errorf("one more failure: exit %d, want 1", code)
	}
	if !strings.Contains(buf.String(), "regressed") {
		t.Errorf("no row says regressed:\n%s", buf.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestTablesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
}

// BENCHMARK.json at the repository root is the harness's copy of the
// tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this package: %v", err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 8 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the tables have %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the tables have %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the tables have %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v, want %+v", i, got, d)
		}
	}
}

// smokeScale is the smallest dataset whose training half still mines
// rules with four racks; smokeSeconds keeps every timed phase to a pass
// or two.
const (
	smokeScale   = 0.06
	smokeSeconds = 0.3
)

// smoke runs one workload over ds and checks the result line the way
// the harness reads it.
func smoke(t *testing.T, ds *dataset, w workload, seed uint64, trace bool) {
	t.Helper()
	cfg := config{workload: w, seed: seed, seconds: smokeSeconds, scale: smokeScale, trace: trace, outDir: t.TempDir()}
	t0 := time.Now()
	own := *ds // a timed phase releases its dataset's records; ds is shared
	p, err := prepareWorkload(w, &own)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.Name, err)
	}
	out, err := measure(cfg, p, []float64{time.Since(t0).Seconds()})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, cfg, out); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", w.Name, err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, res.Correct, res.Attempted, res.Failed, buf.String())
	}
	want := endToEnd
	if trace {
		want = perLayer
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics in the result, want %d", w.Name, len(res.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s: %+v (present %v), want unit %s", w.Name, d.Name, v, ok, d.Unit)
		}
		if !trace && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g, want above zero", w.Name, d.Name, v.Value)
		}
	}
	if leftovers, _ := filepath.Glob(filepath.Join(cfg.outDir, "*-*")); len(leftovers) > 1 {
		t.Errorf("%s: scratch directories left behind: %v", w.Name, leftovers)
	}
}

func TestSmoke(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		ds, err := buildDataset(smokeScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/seed=%d", w.Name, seed), func(t *testing.T) { smoke(t, ds, w, seed, false) })
		}
		// One traced run measures every layer whatever the workload; the
		// two here take both branches of what the workload does pick.
		if seed == 1 && !raceDetector {
			for _, w := range []workload{mustWorkload("gate-bin-flood"), mustWorkload("retrain-cycle")} {
				t.Run(w.Name+"/traced", func(t *testing.T) { smoke(t, ds, w, seed, true) })
			}
		}
	}
}
