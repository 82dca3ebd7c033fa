package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
	"bglpred/internal/report"
)

func testCtx() *Context { return NewContext(0.08, 3) }

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

const goldenPath = "testdata/tables.golden"

// TestAllExperimentsRun runs every experiment and compares each table
// with testdata/tables.golden: decimals agree to 2 places, every other
// byte exactly. A change that moves a number regenerates the golden
// with -update and says why in EXPERIMENTS.md.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var want map[string][]string
	if !*update {
		want = readGolden(t)
	}
	ctx := testCtx()
	got := make(map[string][]string)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.Title == "" {
					t.Errorf("%s: untitled table", e.ID)
				}
				if tb.NumRows() == 0 {
					t.Errorf("%s: empty table %q", e.ID, tb.Title)
				}
				if tb.Render() == "" || tb.CSV() == "" {
					t.Errorf("%s: unrenderable table %q", e.ID, tb.Title)
				}
			}
			got[e.ID] = goldenLines(tables)
			if !*update {
				compareGolden(t, want[e.ID], got[e.ID])
			}
		})
	}
	if *update {
		writeGolden(t, got)
	}
}

// goldenLines renders tables as the golden stores them: the title,
// then the header and each row as tab-separated cells. Wall-clock
// columns ("mining time") read "~": they measure the host, not the
// reproduction.
func goldenLines(tables []*report.Table) []string {
	var out []string
	for _, tb := range tables {
		out = append(out, tb.Title)
		rows := strings.Split(strings.TrimSuffix(tb.CSV(), "\n"), "\n")
		for i, row := range rows {
			cells := strings.Split(row, ",")
			if i > 0 && len(cells) == len(tb.Headers) {
				for j, h := range tb.Headers {
					if strings.HasSuffix(h, " time") {
						cells[j] = "~"
					}
				}
			}
			out = append(out, strings.Join(cells, "\t"))
		}
		out = append(out, "")
	}
	return out
}

var decimalRE = regexp.MustCompile(`-?[0-9]+\.[0-9]+`)

// compareGolden fails on the first line whose text differs from the
// golden outside its decimals, or whose decimals differ at 2 places.
func compareGolden(t *testing.T, want, got []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("no golden section; run go test ./internal/experiments -run TestAllExperimentsRun -update")
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !sameAt2Decimals(got[i], want[i]) {
			t.Fatalf("line %d moved:\n got  %q\n want %q", i+1, got[i], want[i])
		}
	}
}

func sameAt2Decimals(got, want string) bool {
	if decimalRE.ReplaceAllString(got, "#") != decimalRE.ReplaceAllString(want, "#") {
		return false
	}
	g, w := decimalRE.FindAllString(got, -1), decimalRE.FindAllString(want, -1)
	for i := range g {
		a, _ := strconv.ParseFloat(g[i], 64)
		b, _ := strconv.ParseFloat(w[i], 64)
		if math.Abs(a-b) >= 0.005 {
			return false
		}
	}
	return true
}

// readGolden parses the golden into per-experiment sections, each
// opened by a "== <id>" line.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	var id string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id = rest
			continue
		}
		out[id] = append(out[id], line)
	}
	return out
}

func writeGolden(t *testing.T, got map[string][]string) {
	t.Helper()
	var b strings.Builder
	for _, e := range All() {
		lines, ok := got[e.ID]
		if !ok {
			t.Fatalf("-update needs every experiment; %s did not run", e.ID)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", e.ID, strings.Join(lines, "\n"))
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("table99"); ok {
		t.Error("ByID accepted junk")
	}
}

func TestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%q: incomplete definition", e.ID)
		}
	}
}

func TestDatasetCachedAndShared(t *testing.T) {
	ctx := testCtx()
	a, err := ctx.Dataset("ANL")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Dataset("ANL")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dataset not cached")
	}
	if _, err := ctx.Dataset("LLNL"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestContextDefaults(t *testing.T) {
	c := NewContext(0, 0)
	if c.Scale != 0.1 || c.Folds != 10 {
		t.Fatalf("defaults = %v/%v", c.Scale, c.Folds)
	}
}

func TestTable3MatchesPaperExactly(t *testing.T) {
	tables, err := table3(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].Render()
	// The taxonomy is static: measured and paper columns must agree on
	// every row, so the rendered table contains no mismatched pairs.
	for _, row := range []string{"12             12", "8              8", "20             20",
		"22             22", "6              6", "11             11", "10             10",
		"101            101"} {
		if !strings.Contains(out, row) {
			t.Errorf("table 3 row missing %q:\n%s", row, out)
		}
	}
}

func TestFigure3PrintsRuleArrows(t *testing.T) {
	tables, err := figure3(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if !strings.Contains(tb.Render(), "==>") {
			t.Errorf("no rules in %q", tb.Title)
		}
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	for _, sys := range Systems {
		if _, ok := paperTable1[sys]; !ok {
			t.Errorf("paperTable1 missing %s", sys)
		}
		if _, ok := paperTable4[sys]; !ok {
			t.Errorf("paperTable4 missing %s", sys)
		}
		if _, ok := paperTable5[sys]; !ok {
			t.Errorf("paperTable5 missing %s", sys)
		}
		if _, ok := paperFigure5[sys]; !ok {
			t.Errorf("paperFigure5 missing %s", sys)
		}
	}
	// Paper Table 4 totals must be the published 2823 and 2182.
	tot := map[string]int{}
	for sys, rows := range paperTable4 {
		for _, n := range rows {
			tot[sys] += n
		}
	}
	if tot["ANL"] != 2823 || tot["SDSC"] != 2182 {
		t.Fatalf("paper totals = %v", tot)
	}
}

func TestMeanStddev(t *testing.T) {
	mean, sd := meanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	if sd != 2 {
		t.Fatalf("sd = %v", sd)
	}
	if m, s := meanStddev(nil); m != 0 || s != 0 {
		t.Fatal("empty input should give zeros")
	}
}

// TestAblationMinerRowsAgree pins the miner ablation: Apriori and
// FP-growth mine the same rule set, so their rows show the same rule
// count and the same top rule.
func TestAblationMinerRowsAgree(t *testing.T) {
	tables, err := ablationMiner(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // miner -> "rules,top rule"
	for _, line := range strings.Split(strings.TrimSpace(tables[0].CSV()), "\n")[1:] {
		miner, rest, _ := strings.Cut(line, ",")
		rows[miner] = rest[:strings.LastIndex(rest, ",")] // drop the mining time
	}
	ap, fp := rows["apriori"], rows["fpgrowth"]
	if ap == "" || fp == "" {
		t.Fatalf("missing miner rows: %q", rows)
	}
	if ap != fp {
		t.Fatalf("apriori row %q != fpgrowth row %q", ap, fp)
	}
	if strings.HasPrefix(ap, "0,") {
		t.Fatalf("no rules mined: %q", ap)
	}
}

// TestDeviationMinSupportPaperValueDropsCoredumpFamily pins a deviation
// from the paper (EXPERIMENTS.md deviation 8): the paper states a
// minimum support of 0.04, but with one event-set per fatal event that
// threshold drops Figure 3's coredumpCreated ==> loadProgramFailure
// family, which the 0.01 default keeps. The ddr/mask ==>
// socketReadFailure family clears both thresholds.
func TestDeviationMinSupportPaperValueDropsCoredumpFamily(t *testing.T) {
	d, err := testCtx().Dataset("ANL")
	if err != nil {
		t.Fatal(err)
	}
	family := func(support float64, body, head string) (assoc.Rule, bool) {
		r := predictor.NewRule()
		r.Config.RuleGenWindow = 15 * time.Minute
		r.Config.MinSupport = support
		if err := r.Train(d.Pre.Events); err != nil {
			t.Fatal(err)
		}
		b, h := catalog.MustByName(body), catalog.MustByName(head)
		for _, rule := range r.Rules().Rules {
			if rule.Body.Contains(b.ID) && rule.Heads.Contains(h.ID) {
				return rule, true
			}
		}
		return assoc.Rule{}, false
	}

	kept, ok := family(0.01, "coredumpCreated", "loadProgramFailure")
	if !ok {
		t.Fatal("default 0.01 support lost coredumpCreated ==> loadProgramFailure")
	}
	if kept.Support >= 0.04 {
		t.Fatalf("coredump family support %.4f clears the paper's 0.04; the deviation is gone", kept.Support)
	}
	if _, ok := family(0.04, "coredumpCreated", "loadProgramFailure"); ok {
		t.Fatal("paper 0.04 support kept coredumpCreated ==> loadProgramFailure; the deviation is gone")
	}
	for _, sup := range []float64{0.01, 0.04} {
		if _, ok := family(sup, "maskInfo", "socketReadFailure"); !ok {
			t.Fatalf("support %.2f lost maskInfo ==> socketReadFailure", sup)
		}
	}
}
