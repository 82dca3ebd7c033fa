// Command bench is the repository's one benchmark: five named
// workloads over one generated dataset, end-to-end metrics from timed
// runs, per-layer metrics from a separate traced run, and a
// correctness oracle that compares every served alert stream with a
// reference replay. README.md in this directory is the manual.
//
//	go run ./bench                                   all workloads, -runs runs each, writes bench/out/result.json
//	go run ./bench -trace 1                          the same plus one traced run per workload
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one run; the last stdout line is its result as JSON
//	go run ./bench -compare a.json b.json            compare two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"bglpred/internal/lifecycle"
)

// workload is one named set of inputs and the way they are offered.
type workload struct {
	Name  string
	Why   string
	shape *shape // nil for retrain-cycle, which ingests nothing
}

var workloads = []workload{
	{Name: "serve-bin-flood", shape: &shape{batch: 4096},
		Why: "closed loop of 4096-record binary bodies into one server: wire decode and the engines do the work, HTTP almost none"},
	{Name: "serve-text-flood", shape: &shape{batch: 4096, text: true},
		Why: "same stream and batching in the pipe-text dialect: text parsing dominates while engine work is identical"},
	{Name: "gate-bin-flood", shape: &shape{batch: 4096, gate: true},
		Why: "same binary bodies through the gate to two backends: peek, stitch, forward and the second HTTP hop are the delta"},
	{Name: "paced-durable", shape: &shape{batch: 256, paced: true},
		Why: "open loop of 100 POST/s x 256 records with ledger fsync, SSE subscriber and checkpoints: per-request cost dominates"},
	{Name: "retrain-cycle",
		Why: "closed loop of RetrainNow over the whole log with three base predictors: the training path works, the ingest path idles"},
}

// mustWorkload is for names written in this package.
func mustWorkload(name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		panic("bench: no workload " + name)
	}
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's parameters.
type config struct {
	workload workload
	seed     uint64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string
}

// setupRepeats is how many times set-up is done so that setup_s can be
// a median; the last repetition's product is the one measured.
const setupRepeats = 3

// prepared is what set-up leaves for the timed phase.
type prepared struct {
	ds       *dataset
	bodies   []body              // ingest workloads
	recorder *lifecycle.Recorder // retrain-cycle
}

// prepare does everything between process start and the first timed
// operation: generate the log, train the serving model, and then the
// workload's own part — encode the bodies and bring a front up once,
// or fill the recorder.
func prepare(w workload, scale float64, seed uint64) (*prepared, error) {
	ds, err := buildDataset(scale, seed)
	if err != nil {
		return nil, err
	}
	return prepareWorkload(w, ds)
}

func prepareWorkload(w workload, ds *dataset) (*prepared, error) {
	p := &prepared{ds: ds}
	if w.shape == nil {
		p.recorder = fillRecorder(ds.all)
		return p, nil
	}
	var err error
	if p.bodies, err = encodeBodies(ds.tail, w.shape.batch, w.shape.text); err != nil {
		return nil, err
	}
	f, err := w.shape.newFront(ds.model, false)
	if err != nil {
		return nil, err
	}
	f.close()
	return p, nil
}

// outcome accumulates one run's result.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string // failed operations and oracle mismatches, first few
	wrong     bool     // an oracle check disagreed
	e2e       *metricSet
	layers    *metricSet
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: newMetricSet(endToEnd), layers: newMetricSet(perLayer)}
}

const maxProblems = 5

func (o *outcome) problem(s string) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, s)
	}
}

// op counts one attempted operation — a POST, a checkpoint, a retrain,
// an alert owed to the subscriber — and its failure if err is set.
func (o *outcome) op(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		o.problem(err.Error())
	}
}

// mismatch records an oracle disagreement; diff "" means agreement.
func (o *outcome) mismatch(where, diff string) {
	if diff == "" {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wrong = true
	o.problem(where + ": " + diff)
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne performs one run of one workload: set-up, repeated so that
// setup_s is a median, then the measured phase.
func runOne(cfg config) (*outcome, error) {
	var p *prepared
	var setups []float64
	n := setupRepeats
	if cfg.trace {
		n = 1 // a traced run reports no setup_s
	}
	for i := 0; i < n; i++ {
		// Collect the previous repetition's product first, so each one
		// starts from the same heap and the last does not carry three.
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = prepare(cfg.workload, cfg.scale, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return measure(cfg, p, setups)
}

// measure runs either the timed phase or the traced one over what
// set-up prepared; setups are the set-up times to report.
func measure(cfg config, p *prepared, setups []float64) (*outcome, error) {
	out := newOutcome()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := runTrace(p, cfg, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := runTimed(p, cfg, out); err != nil {
		return nil, err
	}
	out.e2e.set("setup_s", median(setups))
	out.notef("setup_s: median of %d set-ups (min %.3f s, max %.3f s)", len(setups), minOf(setups), maxOf(setups))
	if rss, err := peakRSSMB(); err == nil {
		out.notef("peak_rss_mb: %.1f (VmHWM of this process; not a metric, see README)", rss)
	}
	return out, nil
}

// runTimed is the workload's timed phase, tracing off. It owns p: once
// the reference is computed it drops the generated records, so the
// timed phase's collector scans the server's heap and not a million
// records of the generator's.
func runTimed(p *prepared, cfg config, out *outcome) error {
	sh := cfg.workload.shape
	if sh == nil {
		p.ds.release() // the recorder holds its own copy
		_, err := runRetrain(p, cfg.seconds, cfg.outDir, out)
		return err
	}
	orc, err := newOracle(p.ds, *sh)
	if err != nil {
		return err
	}
	p.ds.release()
	if sh.paced {
		_, err = runPaced(p, *sh, orc, cfg.seconds, cfg.outDir, out)
		return err
	}
	return runFlood(p, *sh, orc, cfg.seconds, out)
}

// emit prints a run's notes and problems, then the result line.
func emit(w io.Writer, cfg config, out *outcome) error {
	set := out.e2e
	if cfg.trace {
		set = out.layers
	}
	if missing := set.missing(); len(missing) > 0 {
		return fmt.Errorf("run measured no value for %s", strings.Join(missing, ", "))
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g scale %g trace %v GOMAXPROCS %d\n",
		cfg.workload.Name, cfg.seed, cfg.seconds, cfg.scale, cfg.trace, runtime.GOMAXPROCS(0))
	for _, d := range set.defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, set.vals[d.Name].Value, d.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	line, err := json.Marshal(result{
		Correct:   !out.wrong,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   set.vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its result line; empty runs all of them")
	seed := fs.Uint64("seed", 1, "dataset seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of each timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced run that yields the per-layer metrics, 0 the timed run")
	runs := fs.Int("runs", 3, "timed runs per workload when running all of them")
	scale := fs.Float64("scale", 0.25, "dataset scale: 0.25 is about one million records")
	outDir := fs.String("out", "bench/out", "directory for result, span and scratch files")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || *scale <= 0 || *runs < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive, -runs at least 1, -trace 0 or 1, and no arguments")
		return 2
	}
	if *name == "" {
		return runAll(driverConfig{seed: *seed, seconds: *seconds, scale: *scale, runs: *runs, trace: *trace == 1, outDir: *outDir}, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, outDir: *outDir}
	out, err := runOne(cfg)
	if err == nil {
		err = emit(stdout, cfg, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if out.wrong || out.failed > 0 {
		return 1
	}
	return 0
}

func minOf(xs []float64) float64 { return percentile(xs, 0) }
func maxOf(xs []float64) float64 { return percentile(xs, 100) }
