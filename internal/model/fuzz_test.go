package model

import (
	"os"
	"path/filepath"
	"testing"

	"bglpred/internal/ecg"
)

// FuzzDecode feeds arbitrary bytes through the artifact decoder. The
// contract under fuzzing: corrupted, truncated, or adversarial inputs
// return an error — they never panic, never hang, and never allocate
// unboundedly (the header's declared length is capped before any
// allocation trusts it).
func FuzzDecode(f *testing.F) {
	// Seed with a valid artifact and characteristic damage so the
	// fuzzer starts at the interesting boundaries.
	valid, err := encodedGolden()
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
	if err := withGraph.convertV1(); err != nil {
		f.Fatal(err)
	}
	withGraph.Sections = append(withGraph.Sections, ecgSection(f,
		[]ecg.Node{{ID: 3, Count: 4}, {ID: 7, Count: 2}}, []ecg.Edge{{From: 3, To: 7, Count: 2}}))
	graphSeed, _, err := MarshalEnvelope(ArtifactMagic, ArtifactVersion, withGraph)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(graphSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, info, err := Decode(data)
		if err != nil {
			if a != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// A successful decode must round-trip: re-saving the artifact
		// yields a loadable file with the same content hash semantics.
		path := filepath.Join(t.TempDir(), "refuzz.bglm")
		if _, err := a.Save(path); err != nil {
			t.Fatalf("decoded artifact failed to re-save: %v", err)
		}
		if _, err := Verify(path); err != nil {
			t.Fatalf("re-saved artifact failed verification: %v", err)
		}
		_ = info
		// Rebuilding the predictors from the sections may fail, but
		// must not panic: every base's SetState is under fuzz too.
		_, _ = a.Meta()
	})
}

// encodedGolden renders the golden artifact to bytes without touching
// testdata (the fuzz corpus must not depend on committed files).
func encodedGolden() ([]byte, error) {
	dir, err := os.MkdirTemp("", "bglm-fuzz-seed")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.bglm")
	if _, err := goldenArtifact().Save(path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}
