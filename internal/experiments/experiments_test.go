package experiments

import (
	"strings"
	"testing"
	"time"

	"bglpred/internal/assoc"
	"bglpred/internal/catalog"
	"bglpred/internal/predictor"
)

func testCtx() *Context { return NewContext(0.08, 3) }

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ctx := testCtx()
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
		})
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
		b, _ := catalog.ByName(body)
		h, _ := catalog.ByName(head)
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
