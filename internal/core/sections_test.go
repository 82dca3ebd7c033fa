package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bglpred/internal/bglsim"
	"bglpred/internal/preprocess"
)

var updateSections = flag.Bool("update", false, "rewrite testdata/sections.golden from this run")

const sectionsGolden = "testdata/sections.golden"

// TestTrainSectionsMatchGolden trains all three bases over a fixed
// bglsim log and compares each base's State section, as bytes, with
// testdata/sections.golden. The sections are canonical (internal/canon),
// so the digests pin each base's encoding and its training alone.
func TestTrainSectionsMatchGolden(t *testing.T) {
	p := bglsim.ANLProfile()
	p.Seed = 7
	gen, err := bglsim.Generate(p.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	events := preprocess.Run(gen.Events, preprocess.Options{}).Events
	trained, err := New(Config{Predictors: []string{"statistical", "rule", "ecg"}}).Train(events)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	var names []string
	for _, b := range trained.Meta.Bases() {
		data, err := b.State()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		sum := sha256.Sum256(data)
		got[b.Name()] = hex.EncodeToString(sum[:])
		names = append(names, b.Name())
	}
	if *updateSections {
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(sectionsGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(sectionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden names %d sections, training produced %d", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s section digest %s, golden %s", name, sum, want[name])
		}
	}
}
