package main

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

func sampleEvents() []raslog.Event {
	t0 := time.Date(2005, 1, 21, 0, 0, 0, 0, time.UTC)
	mk := func(id int64, at time.Time) raslog.Event {
		return raslog.Event{
			RecID: id, Type: raslog.EventTypeRAS, Time: at, JobID: raslog.NoJob,
			Location:  raslog.Location{Kind: raslog.KindServiceCard, Rack: 1, Midplane: 0},
			EntryData: "service card environmental warning",
			Facility:  "SERVICECARD", Severity: raslog.Warning,
		}
	}
	return []raslog.Event{mk(1, t0), mk(2, t0.Add(time.Hour))}
}

func TestReadInputFormats(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents()

	textPath := filepath.Join(dir, "log.txt")
	if err := raslog.WriteFile(textPath, events); err != nil {
		t.Fatal(err)
	}
	wirePath := filepath.Join(dir, "log.bglw")
	if err := raslog.WriteWireFile(wirePath, events); err != nil {
		t.Fatal(err)
	}
	cfdrPath := filepath.Join(dir, "log.cfdr")
	if err := raslog.WriteCFDRFile(cfdrPath, events); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ format, path string }{
		{"auto", textPath},
		{"auto", wirePath},
		{"text", textPath},
		{"wire", wirePath},
		{"cfdr", cfdrPath},
	} {
		got, err := readInput(tc.format, tc.path)
		if err != nil {
			t.Fatalf("readInput(%s, %s): %v", tc.format, tc.path, err)
		}
		if len(got) != len(events) {
			t.Fatalf("readInput(%s): %d events, want %d", tc.format, len(got), len(events))
		}
	}
	if _, err := readInput("parquet", textPath); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := readInput("text", filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTextWireTextByteEqual: a generated log, locally shuffled the way
// a multi-source dump is out of order, survives text -> wire -> text
// byte-equal to the sorted input.
func TestTextWireTextByteEqual(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sortedPath := filepath.Join(dir, "sorted.raslog")
	if err := raslog.WriteFile(sortedPath, gen.Events); err != nil {
		t.Fatal(err)
	}
	shuffled := append([]raslog.Event(nil), gen.Events...)
	rng := rand.New(rand.NewPCG(1, 2))
	for lo := 0; lo < len(shuffled); lo += 16 {
		block := shuffled[lo:min(lo+16, len(shuffled))]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	src := filepath.Join(dir, "shuffled.raslog")
	if err := raslog.WriteFile(src, shuffled); err != nil {
		t.Fatal(err)
	}

	wire := filepath.Join(dir, "log.bglw")
	back := filepath.Join(dir, "back.raslog")
	if n, err := convert("auto", "wire", src, wire); err != nil || n != len(gen.Events) {
		t.Fatalf("text -> wire: %d records, %v", n, err)
	}
	if n, err := convert("wire", "text", wire, back); err != nil || n != len(gen.Events) {
		t.Fatalf("wire -> text: %d records, %v", n, err)
	}
	want, err := os.ReadFile(sortedPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("text -> wire -> text differs from the sorted input (%d vs %d bytes)", len(got), len(want))
	}
}

// TestBinaryFormatRejected: the retired binary format value is gone on
// both sides.
func TestBinaryFormatRejected(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "log.txt")
	if err := raslog.WriteFile(src, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out")
	if _, err := convert("binary", "wire", src, dst); err == nil {
		t.Fatal("-in binary accepted")
	}
	if _, err := convert("auto", "binary", src, dst); err == nil {
		t.Fatal("-out binary accepted")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("a rejected conversion wrote %s (stat: %v)", dst, err)
	}
}
