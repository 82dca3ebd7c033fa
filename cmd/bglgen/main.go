// Command bglgen synthesizes a raw Blue Gene/L RAS log from one of
// the calibrated system profiles and writes it in the repository's
// text log dialect or as a binary log (a stream of wire frames, whose
// bytes are also a valid POST /v1/ingest body).
//
// Usage:
//
//	bglgen -system ANL -scale 0.1 -o anl.raslog
//	bglgen -system SDSC -scale 1.0 -seed 42 -o sdsc.raslog
//	bglgen -system ANL -format wire      # writes ANL.bglw
package main

import (
	"flag"
	"fmt"
	"os"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

func main() {
	system := flag.String("system", "ANL", "profile to generate: ANL or SDSC")
	scale := flag.Float64("scale", 0.1, "fraction of the full 14-15 month span (0, 1]")
	seed := flag.Uint64("seed", 0, "override the profile's deterministic seed (0 keeps it)")
	format := flag.String("format", "text", "output format: text or wire")
	out := flag.String("o", "", "output path (default <system>.raslog, or <system>.bglw for wire)")
	quiet := flag.Bool("q", false, "suppress the summary line")
	flag.Parse()

	prof, ok := bglsim.ProfileByName(*system)
	if !ok {
		fmt.Fprintf(os.Stderr, "bglgen: unknown system %q (want ANL or SDSC)\n", *system)
		os.Exit(2)
	}
	write, ext := raslog.WriteFile, ".raslog"
	switch *format {
	case "text":
	case "wire":
		write, ext = raslog.WriteWireFile, ".bglw"
	default:
		fmt.Fprintf(os.Stderr, "bglgen: unknown format %q (want text or wire)\n", *format)
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = *system + ext
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	prof = prof.Scaled(*scale)

	res, err := bglsim.Generate(prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglgen: %v\n", err)
		os.Exit(1)
	}
	if err := write(path, res.Events); err != nil {
		fmt.Fprintf(os.Stderr, "bglgen: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		sum := raslog.Summarize(res.Events)
		size := int64(0)
		if info, err := os.Stat(path); err == nil {
			size = info.Size()
		}
		fmt.Printf("%s: wrote %d records (%d logical events, %.1f MB) spanning %s..%s to %s\n",
			prof.Name, sum.Records, len(res.Logical), float64(size)/1e6,
			sum.Start.Format("2006-01-02"), sum.End.Format("2006-01-02"), path)
	}
}
