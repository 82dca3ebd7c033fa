package online

import (
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
)

// TestStreamingMatchesBatchCompression is the differential test
// between the two drivers of the Phase 1 kernel: batch preprocess.Run
// (sharded, parallel) and the engine must keep exactly the same raw
// records as unique events when handed the same preprocess.Options —
// the training pipeline's settings, literal temporal key and
// non-default thresholds included. An untrained meta-learner raises
// no alarms, so the engine acts as a pure streaming compressor here.
func TestStreamingMatchesBatchCompression(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.004))
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Events) < 2*4096 {
		t.Fatalf("only %d records; need enough to exercise the sharded batch path", len(gen.Events))
	}
	for name, opts := range map[string]preprocess.Options{
		"defaults":                    {},
		"literalKey":                  {TemporalKeyIgnoresCategory: true},
		"thresholds=1m,15m":           {TemporalThreshold: time.Minute, SpatialThreshold: 15 * time.Minute},
		"literalKey+thresholds=1h,1s": {TemporalThreshold: time.Hour, SpatialThreshold: time.Second, TemporalKeyIgnoresCategory: true},
	} {
		t.Run(name, func(t *testing.T) {
			opts.Workers = 4 // force the shard-then-merge path
			batch := preprocess.Run(gen.Events, opts)
			want := make(map[int64]bool, len(batch.Events))
			for i := range batch.Events {
				want[batch.Events[i].RecID] = true
			}

			eng := New(predictor.NewMeta(), Config{Preprocess: opts})
			got := make(map[int64]bool, len(want))
			for i := range gen.Events {
				ing, err := eng.Ingest(&gen.Events[i])
				if err != nil {
					t.Fatal(err)
				}
				if ing.Unique {
					got[gen.Events[i].RecID] = true
				}
			}

			for id := range want {
				if !got[id] {
					t.Errorf("record %d unique in batch, suppressed in streaming", id)
				}
			}
			for id := range got {
				if !want[id] {
					t.Errorf("record %d unique in streaming, suppressed in batch", id)
				}
			}
			c := eng.Counters()
			if int(c.Unique) != batch.Stats.AfterSpatial {
				t.Errorf("unique counts: streaming %d, batch %d", c.Unique, batch.Stats.AfterSpatial)
			}
			if int(c.Unclassified) != batch.Stats.Unclassified {
				t.Errorf("unclassified counts: streaming %d, batch %d", c.Unclassified, batch.Stats.Unclassified)
			}
		})
	}
}
