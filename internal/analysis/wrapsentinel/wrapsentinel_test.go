package wrapsentinel_test

import (
	"strings"
	"testing"

	"bglpred/internal/analysis/analysistest"
	"bglpred/internal/analysis/wrapsentinel"
)

func TestWrapSentinel(t *testing.T) {
	findings := analysistest.Run(t, wrapsentinel.Analyzer, "a")
	if want := 7; len(findings) != want {
		t.Errorf("got %d findings, want %d: %v", len(findings), want, findings)
	}
}

// TestPlantedLifecycleGiveUpWrap is wrapsentinel's evidence on this
// tree: the real lifecycle package is clean, and a give-up error that
// formats ErrCheckpointGiveUp with %v — so errors.Is no longer finds
// it — produces exactly one finding naming the sentinel.
func TestPlantedLifecycleGiveUpWrap(t *testing.T) {
	const path = "bglpred/internal/lifecycle"
	t.Run("unmodified", func(t *testing.T) {
		if findings := analysistest.RunOnCopy(t, wrapsentinel.Analyzer, path, ""); len(findings) != 0 {
			t.Fatalf("unmodified lifecycle has findings: %v", findings)
		}
	})
	t.Run("planted", func(t *testing.T) {
		findings := analysistest.RunOnCopy(t, wrapsentinel.Analyzer, path, `package lifecycle

import "fmt"

func plantedGiveUp(err error) error {
	return fmt.Errorf("%v: %w", ErrCheckpointGiveUp, err)
}
`)
		if len(findings) != 1 || !strings.Contains(findings[0].Message, "ErrCheckpointGiveUp wrapped with %v") {
			t.Fatalf("want exactly 1 finding for the %%v-wrapped sentinel, got %v", findings)
		}
	})
}
