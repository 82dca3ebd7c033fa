package model

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
)

// FuzzDecode feeds arbitrary bytes through the artifact decoder, the
// current canonical format and the gob formats of versions 1 and 2
// alike. The contract under fuzzing: corrupted, truncated, or
// adversarial inputs return an error — they never panic, never hang,
// and never allocate unboundedly (the header's declared length and
// every count in the payload are capped by the bytes that arrived). An
// artifact that decodes either fails Meta or rebuilds under one of the
// four policies.
func FuzzDecode(f *testing.F) {
	// Seed with valid artifacts and characteristic damage so the
	// fuzzer starts at the interesting boundaries.
	valid, _, err := goldenArtifact().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add(valid[:headerLen-1])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(ArtifactMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[headerLen] ^= 0xff
	f.Add(flipped)
	// A three-section artifact, so mutations reach ecg's SetState.
	withGraph := goldenArtifact()
	withGraph.Sections = append(withGraph.Sections, ecgSection(
		[]ecg.Node{{ID: 3, Count: 4}, {ID: 7, Count: 2}}, []ecg.Edge{{From: 3, To: 7, Count: 2}}))
	graphSeed, _, err := withGraph.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(graphSeed)
	// The retired policy 2 and a number that names no policy, so
	// mutations reach Meta's policy check.
	for _, policy := range []int{2, 9} {
		withPolicy := goldenArtifact()
		withPolicy.Policy = policy
		seed, _, err := withPolicy.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	// The committed version-1 and version-2 goldens, so mutations reach
	// the gob decoder and the legacy conversion.
	for _, name := range []string{"golden_v1.bglm", "golden_v2_parent.bglm"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, _, err := Decode(data)
		if err != nil {
			if a != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// A successful decode must round-trip: re-saving the artifact
		// yields a loadable file, and decoding that re-encodes to the
		// same bytes (the encoding is canonical).
		path := filepath.Join(t.TempDir(), "refuzz.bglm")
		saved, err := a.Save(path)
		if err != nil {
			t.Fatalf("decoded artifact failed to re-save: %v", err)
		}
		if _, err := Verify(path); err != nil {
			t.Fatalf("re-saved artifact failed verification: %v", err)
		}
		again, _, err := Load(path)
		if err != nil {
			t.Fatalf("re-saved artifact failed to load: %v", err)
		}
		if _, info, err := again.Encode(); err != nil || info.SHA256 != saved.SHA256 {
			t.Fatalf("re-loaded artifact re-encodes to sha %s (%v), saved %s", info.SHA256, err, saved.SHA256)
		}
		// Rebuilding the predictors from the sections may fail, but
		// must not panic: every base's SetState is under fuzz too. A
		// meta it does yield runs one of the four policies; any other
		// number would run ungated.
		if m, err := a.Meta(); err == nil && !slices.Contains(predictor.Policies(), m.Policy) {
			t.Fatalf("artifact policy %d rebuilt as %v", a.Policy, m.Policy)
		}
	})
}
