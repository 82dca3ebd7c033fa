package bglpred

import (
	"path/filepath"
	"testing"
	"time"

	"bglpred/internal/raslog"
)

func TestFacadeQuickstartPath(t *testing.T) {
	// The README quickstart, end to end through the public facade.
	gen, err := Generate(ANLProfile().Scaled(0.03))
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Events) == 0 {
		t.Fatal("no events generated")
	}
	p := NewPipeline(Config{Folds: 3})
	rep, err := p.Run(gen.Events, []time.Duration{30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preprocess.Stats.FatalUnique == 0 {
		t.Fatal("no fatal events after preprocessing")
	}
	if len(rep.Evaluation.MetaSweep) != 1 {
		t.Fatalf("meta sweep points = %d", len(rep.Evaluation.MetaSweep))
	}
}

func TestFacadeProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 2 || ps[0].Name != "ANL" || ps[1].Name != "SDSC" {
		t.Fatalf("Profiles() = %v", ps)
	}
	if ANLProfile().Machine.IOChipsPerNodeCard >= SDSCProfile().Machine.IOChipsPerNodeCard {
		t.Error("SDSC must be the I/O-rich system")
	}
}

func TestFacadeTaxonomy(t *testing.T) {
	subs := Subcategories()
	if len(subs) != 101 {
		t.Fatalf("taxonomy size = %d, want 101", len(subs))
	}
	s, ok := SubcategoryByID(subs[5].ID)
	if !ok || s.Name != subs[5].Name {
		t.Fatal("SubcategoryByID mismatch")
	}
	if SubcategoryName(subs[0].ID) != subs[0].Name {
		t.Fatal("SubcategoryName mismatch")
	}
	if SubcategoryName(-1) != "?" {
		t.Fatal("unknown ID should render as ?")
	}
}

func TestFacadeSeverities(t *testing.T) {
	if !Fatal.IsFatal() || !Failure.IsFatal() || Info.IsFatal() || Warn.IsFatal() ||
		Severe.IsFatal() || Error.IsFatal() {
		t.Fatal("severity re-exports broken")
	}
}

func TestFacadeLogFileRoundTrip(t *testing.T) {
	gen, err := Generate(SDSCProfile().Scaled(0.005))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log.raslog")
	if err := WriteLogFile(path, gen.Events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gen.Events) {
		t.Fatalf("round trip: %d != %d", len(back), len(gen.Events))
	}
}

func TestFacadeOnlineEngine(t *testing.T) {
	gen, err := Generate(ANLProfile().Scaled(0.03))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(Config{})
	cut := len(gen.Events) * 3 / 4
	trained, err := p.Train(p.Preprocess(gen.Events[:cut]).Events)
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	engine := NewOnlineEngine(trained.Meta, OnlineConfig{
		Window:  30 * time.Minute,
		OnAlert: func(Warning) { alerts++ },
	})
	for i := cut; i < len(gen.Events); i++ {
		if _, err := engine.Ingest(&gen.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if engine.Counters().Unique == 0 {
		t.Fatal("engine compressed everything away")
	}
}

func TestFacadePaperWindows(t *testing.T) {
	w := PaperWindows()
	if len(w) != 12 || w[0] != 5*time.Minute || w[len(w)-1] != time.Hour {
		t.Fatalf("PaperWindows = %v", w)
	}
}

func TestIntegrationPublicFormatRoundTripThroughPipeline(t *testing.T) {
	// Full interop path: synthesize -> export in the public CFDR
	// format -> re-import -> wire-file round trip -> preprocess ->
	// cross-validate. This is examples/publiclog with assertions.
	gen, err := Generate(SDSCProfile().Scaled(0.04))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfdrPath := filepath.Join(dir, "public.log")
	if err := raslog.WriteCFDRFile(cfdrPath, gen.Events); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := raslog.ReadCFDRFile(cfdrPath)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) != len(gen.Events) {
		t.Fatalf("cfdr round trip: %d events (%d skipped), want %d", len(events), skipped, len(gen.Events))
	}
	raslog.SortEvents(events)

	wirePath := filepath.Join(dir, "public.bglw")
	if err := raslog.WriteWireFile(wirePath, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogFile(wirePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("wire round trip: %d != %d", len(back), len(events))
	}

	p := NewPipeline(Config{Folds: 3})
	pre := p.Preprocess(back)
	if pre.Stats.FatalUnique == 0 {
		t.Fatal("no fatal events survived the format chain")
	}
	// The public format drops JOB IDs; compression must still remove
	// the bulk of CMCS duplication.
	if pre.Stats.CompressionRatio() < 0.8 {
		t.Fatalf("compression ratio %.3f; format chain broke dedup", pre.Stats.CompressionRatio())
	}
	res, err := p.Evaluate(pre.Events, []time.Duration{30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetaSweep[0].Result.Pooled.TotalFatal != pre.Stats.FatalUnique {
		t.Fatalf("CV fatals %d != preprocess fatals %d",
			res.MetaSweep[0].Result.Pooled.TotalFatal, pre.Stats.FatalUnique)
	}
}
