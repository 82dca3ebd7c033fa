package lifecycle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/catalog"
	"bglpred/internal/ledger"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

// checkColumn holds rec's column and running totals to a full scan:
// each slab's points are its events' Points and its record total their
// Counts summed, the retrain's column is the Points of Events(), and
// Len, Unique and Seen count what a scan of Events() and the slabs
// counts.
func checkColumn(t *testing.T, rec *Recorder) {
	t.Helper()
	var seen int64
	for i, sl := range *rec.slabs.Load() {
		sl.mu.Lock()
		records := 0
		for j := range sl.events {
			records += sl.events[j].Count
		}
		column, total := slices.Equal(sl.points, preprocess.Points(sl.events)), sl.records
		seen += sl.seen
		sl.mu.Unlock()
		if !column || records != total {
			t.Fatalf("slab %d: column equals its events' Points: %v; record total %d, its events count %d", i, column, total, records)
		}
	}
	events := rec.Events()
	points, records, _ := rec.training(nil)
	if !slices.Equal(points, preprocess.Points(events)) {
		t.Fatalf("the retrain's column (%d points) is not the Points of Events() (%d events)", len(points), len(events))
	}
	scan := 0
	for i := range events {
		scan += events[i].Count
	}
	if records != scan || rec.Len() != scan || rec.Unique() != len(events) || rec.Seen() != seen {
		t.Fatalf("training counts %d records, Len() %d, Unique() %d, Seen() %d; a scan counts %d, %d and %d",
			records, rec.Len(), rec.Unique(), rec.Seen(), scan, len(events), seen)
	}
}

// TestRecorderColumnAndTotalsMatchScan: the column the retrain copies
// and the totals the gauges read follow the events through everything
// that moves them — Observe into one slab, two shard engines into two,
// pruning by the window, the cap, and a restarted engine's re-issued
// slots.
func TestRecorderColumnAndTotalsMatchScan(t *testing.T) {
	meta, _, tail := fixture(t)
	all := fixtureOnce.all
	t.Run("observe, pruned and capped", func(t *testing.T) {
		const window, max = 24 * time.Hour, 100
		rec := NewRecorder(window, max)
		capped, pruned := false, false
		for i := range all {
			rec.Observe(all[i])
			if i%1024 == 0 || i == len(all)-1 {
				checkColumn(t, rec)
				// Once at the cap, only the window brings the count below it.
				pruned = pruned || capped && rec.Unique() < max
				capped = capped || rec.Unique() == max
			}
		}
		if !capped || !pruned {
			t.Fatalf("the cap bound: %v; the window then pruned below it: %v", capped, pruned)
		}
	})
	t.Run("two shards", func(t *testing.T) {
		rec := NewRecorder(72*time.Hour, 3000)
		s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
		defer s.Close()
		for lo := 0; lo < len(tail); lo += 2000 {
			post(t, s, encode(t, tail[lo:min(lo+2000, len(tail))]))
			checkColumn(t, rec)
		}
		for i, sl := range *rec.slabs.Load() {
			if len(sl.events) == 0 {
				t.Fatalf("slab %d holds no events; the merge is not exercised", i)
			}
		}
	})
	t.Run("reissued slots", func(t *testing.T) {
		base := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
		sub := catalog.MustByName("torusFailure")
		rec := NewRecorder(0, 0)
		take := rec.Shard(0)
		for i := 0; i < 10; i++ {
			ev := uniqueRecord(i, base.Add(time.Duration(i)*time.Minute))
			take(&ev, sub, preprocess.Unique, i)
			take(&ev, sub, preprocess.TemporalDuplicate, i)
		}
		ev := uniqueRecord(100, base.Add(time.Hour))
		take(&ev, sub, preprocess.Unique, 5) // a restarted engine's slot 5 truncates slots 5–9
		take(&ev, sub, preprocess.SpatialDuplicate, 5)
		checkColumn(t, rec)
		if rec.Unique() != 6 || rec.Len() != 12 {
			t.Fatalf("Unique() = %d, Len() = %d; want 6 and 12", rec.Unique(), rec.Len())
		}
	})
}

// TestColumnTrainsAsEvents: each base trained on the recorder's column
// serializes to the bytes it does trained on Events(), over three
// seeds, the rule's window selected on its hold-out.
func TestColumnTrainsAsEvents(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		p := bglsim.ANLProfile().Scaled(0.05)
		p.Seed = seed
		gen, err := bglsim.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(365*24*time.Hour, len(gen.Events)+1)
		for i := range gen.Events {
			rec.Observe(gen.Events[i])
		}
		points, _, _ := rec.training(nil)
		events := rec.Events()
		for _, name := range []string{"statistical", "rule", "ecg"} {
			t.Run(fmt.Sprintf("seed %d, %s", seed, name), func(t *testing.T) {
				column, whole := mustBase(t, name), mustBase(t, name)
				if err := column.TrainSegments([][]preprocess.Point{points}); err != nil {
					t.Fatal(err)
				}
				if err := whole.Train(events); err != nil {
					t.Fatal(err)
				}
				got, want := mustState(t, column), mustState(t, whole)
				if !bytes.Equal(got, want) {
					t.Fatalf("trained on the column: %d state bytes, on Events(): %d, not equal", len(got), len(want))
				}
				if r, ok := column.(*predictor.Rule); ok && r.Rules().Len() == 0 {
					t.Fatal("the rule base mined nothing; the comparison is vacuous")
				}
			})
		}
	}
}

func mustBase(t *testing.T, name string) predictor.Base {
	t.Helper()
	b, err := predictor.NewBase(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustState(t *testing.T, b predictor.Base) []byte {
	t.Helper()
	data, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkRetrainNow times RetrainNow at the shape of the bench's
// retrain-cycle workload: ANL × 0.25 on four racks, seed 1, every record
// observed, the statistical, rule and ecg bases, the artifact and the
// ledger on disk, the model swapped into a two-shard server. Beside
// ns/op it reports each stage's mean milliseconds per cycle.
func BenchmarkRetrainNow(b *testing.B) {
	p := bglsim.ANLProfile().Scaled(0.25)
	p.Machine.Racks, p.Seed = 4, 1
	gen, err := bglsim.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	meta := predictor.NewMeta()
	meta.Rule.Config.RuleGenWindow = 15 * time.Minute
	if err := meta.Train(preprocess.Run(gen.Events[:len(gen.Events)/2], preprocess.Options{}).Events); err != nil {
		b.Fatal(err)
	}
	rec := fillRecorder(gen.Events)
	dir := b.TempDir()
	led, _, err := ledger.Open(filepath.Join(dir, LedgerFile), ledger.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer led.Close()
	srv := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer srv.Close()
	rt := NewRetrainer(srv, rec, RetrainerConfig{Pipeline: threeBases(preprocess.Options{}), Dir: dir, Ledger: led})
	b.ResetTimer()
	for range b.N {
		if _, err := rt.RetrainNow(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i := range RetrainStages {
		name, h := rt.Stage(i)
		b.ReportMetric(h.Sum().Seconds()*1000/float64(b.N), name+"-ms/op")
	}
	if _, err := os.Stat(ModelPath(dir)); err != nil {
		b.Fatal(err)
	}
}

// fillRecorder observes every record into a recorder sized never to
// prune.
func fillRecorder(events []raslog.Event) *Recorder {
	span := events[len(events)-1].Time.Sub(events[0].Time)
	rec := NewRecorder(2*span+time.Hour, len(events)+1)
	for i := range events {
		rec.Observe(events[i])
	}
	return rec
}
