// Public-log workflow: the exact steps a user follows to run the
// predictor against the released LLNL Blue Gene/L trace (CFDR/USENIX
// format). Because that download is hundreds of MB, this example
// stands up a faithful miniature: it exports a synthetic log INTO the
// public format, then treats that file as if it were the real
// download — parse, convert, preprocess, predict.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bglpred"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

func main() {
	dir, err := os.MkdirTemp("", "publiclog")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Stand-in for downloading bgl2.log from the CFDR.
	gen, err := bglpred.Generate(bglpred.ANLProfile().Scaled(0.05))
	if err != nil {
		log.Fatal(err)
	}
	publicPath := filepath.Join(dir, "bgl2.log")
	if err := raslog.WriteCFDRFile(publicPath, gen.Events); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(publicPath)
	fmt.Printf("step 0: %q stands in for the CFDR download (%.1f MB, public format)\n",
		filepath.Base(publicPath), float64(info.Size())/1e6)

	// Step 1: parse the public format. Malformed lines are skipped,
	// exactly as needed for the real trace.
	events, skipped, err := raslog.ReadCFDRFile(publicPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1: parsed %d records (skipped %d malformed)\n", len(events), skipped)
	raslog.SortEvents(events)

	// Step 2: convert once to the binary log format (wire frames) for
	// reuse; the file is also a ready-made POST /v1/ingest body.
	wirePath := filepath.Join(dir, "bgl2.bglw")
	if err := raslog.WriteWireFile(wirePath, events); err != nil {
		log.Fatal(err)
	}
	wireInfo, _ := os.Stat(wirePath)
	fmt.Printf("step 2: converted to wire frames (%.1f MB, %.0fx smaller)\n",
		float64(wireInfo.Size())/1e6, float64(info.Size())/float64(wireInfo.Size()))

	// Step 3: Phase 1. Note: the public format has no JOB ID column,
	// so compression keys degrade to location/entry only — exactly what
	// happens on the real trace.
	pipeline := bglpred.NewPipeline(bglpred.Config{Folds: 5})
	pre := pipeline.Preprocess(events)
	fmt.Printf("step 3: %d raw -> %d unique events (%d fatal); job attribution lost: %v\n",
		pre.Stats.Input, pre.Stats.AfterSpatial, pre.Stats.FatalUnique,
		preprocess.JobImpact(pre.Events).JobImpacting == 0)

	// Step 4: cross-validate the meta-learner.
	res, err := pipeline.Evaluate(pre.Events, []time.Duration{30 * time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	m := res.MetaSweep[0].Result
	fmt.Printf("step 4: meta-learner @30min on the public-format data: precision=%.3f recall=%.3f\n",
		m.MeanPrecision, m.MeanRecall)
}
