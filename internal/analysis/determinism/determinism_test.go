package determinism_test

import (
	"strings"
	"testing"

	"bglpred/internal/analysis/analysistest"
	"bglpred/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	findings := analysistest.Run(t, determinism.Analyzer, "a")
	if want := 6; len(findings) != want {
		t.Errorf("got %d findings, want %d: %v", len(findings), want, findings)
	}
}

// TestPlantedPreprocessMapOrder is determinism's evidence on this
// tree: internal/preprocess as it stands gives no finding, and a
// planted range over a map that appends to an unsorted result gives
// exactly one.
func TestPlantedPreprocessMapOrder(t *testing.T) {
	const path = "bglpred/internal/preprocess"
	t.Run("unmodified", func(t *testing.T) {
		if findings := analysistest.RunOnCopy(t, determinism.Analyzer, path, ""); len(findings) != 0 {
			t.Fatalf("unmodified preprocess has findings: %v", findings)
		}
	})
	t.Run("planted", func(t *testing.T) {
		findings := analysistest.RunOnCopy(t, determinism.Analyzer, path, `package preprocess

func plantedJobs(byJob map[int]int) []int {
	var jobs []int
	for job := range byJob {
		jobs = append(jobs, job)
	}
	return jobs
}
`)
		if len(findings) != 1 || !strings.Contains(findings[0].Message, "append to jobs inside iteration over map byJob") {
			t.Fatalf("want exactly 1 finding for the map-ordered append, got %v", findings)
		}
	})
}
