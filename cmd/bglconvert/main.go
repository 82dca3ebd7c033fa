// Command bglconvert converts RAS logs between formats: the public
// CFDR/USENIX Blue Gene/L trace format, this repository's text
// dialect, and its binary log format (a stream of wire frames, so a
// .bglw file is as-is the application/x-bglbin body a bglserved or
// bglgate accepts). Converting the published LLNL BG/L log once lets
// every other tool here run against real data:
//
//	bglconvert -in cfdr bgl2.log bgl2.bglw
//	bglprep bgl2.bglw
//
// Usage:
//
//	bglconvert [-in auto|cfdr|text|wire] [-out wire|text|cfdr] <src> <dst>
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bglpred/internal/raslog"
)

func readInput(format, path string) ([]raslog.Event, error) {
	switch format {
	case "cfdr":
		events, skipped, err := raslog.ReadCFDRFile(path)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "bglconvert: skipped %d malformed lines\n", skipped)
		}
		return events, nil
	case "text", "wire", "auto":
		return raslog.ReadAnyFile(path)
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
}

// convert reads src in format in, sorts it into log order and writes
// it to dst in format out, returning the records converted.
func convert(in, out, src, dst string) (int, error) {
	var write func(string, []raslog.Event) error
	switch out {
	case "wire":
		write = raslog.WriteWireFile
	case "text":
		write = raslog.WriteFile
	case "cfdr":
		write = raslog.WriteCFDRFile
	default:
		return 0, fmt.Errorf("unknown output format %q", out)
	}
	events, err := readInput(in, src)
	if err != nil {
		return 0, err
	}
	raslog.SortEvents(events)
	return len(events), write(dst, events)
}

func main() {
	inFormat := flag.String("in", "auto", "input format: auto, cfdr, text, wire")
	outFormat := flag.String("out", "wire", "output format: wire, text or cfdr")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bglconvert [flags] <src> <dst>")
		os.Exit(2)
	}

	start := time.Now()
	n, err := convert(*inFormat, *outFormat, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglconvert: %v\n", err)
		os.Exit(1)
	}
	info, err := os.Stat(flag.Arg(1))
	size := int64(0)
	if err == nil {
		size = info.Size()
	}
	fmt.Printf("converted %d records in %v (%.1f MB written)\n",
		n, time.Since(start).Round(time.Millisecond), float64(size)/1e6)
}
