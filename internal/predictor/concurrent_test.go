package predictor_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"bglpred/internal/bglsim"
	"bglpred/internal/ecg"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
)

// failingBase is a base whose training always fails with err.
type failingBase struct {
	predictor.Base
	err error
}

func (f failingBase) Name() string { return f.err.Error() }

func (f failingBase) TrainSegments([][]preprocess.Point) error { return f.err }

// threeBases returns fresh statistical, rule and ecg bases.
func threeBases() []predictor.Base {
	return []predictor.Base{predictor.NewStatistical(), predictor.NewRule(), ecg.New(ecg.Config{})}
}

// TestMetaTrainConcurrentMatchesSequential holds the work queue of
// bases to the base-by-base loop it replaced, on one core and on two:
// every base trained inside the meta equals the same base trained alone
// on the same segments, and when bases fail the meta returns the error
// the loop would have stopped at.
func TestMetaTrainConcurrentMatchesSequential(t *testing.T) {
	gen, err := bglsim.Generate(bglsim.ANLProfile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	points := preprocess.Points(preprocess.Run(gen.Events, preprocess.Options{}).Events)
	// Two segments with a fold excised between them, as cross-validation trains.
	n := len(points)
	segs := [][]preprocess.Point{points[:n/2], points[n/2+n/10:]}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			checkMetaMatchesSequential(t, segs)
		})
	}
}

func checkMetaMatchesSequential(t *testing.T, segs [][]preprocess.Point) {

	m := predictor.NewMetaBases(threeBases()...)
	if err := m.TrainSegments(segs); err != nil {
		t.Fatal(err)
	}
	alone := threeBases()
	for i, b := range m.Bases() {
		if err := alone[i].TrainSegments(segs); err != nil {
			t.Fatal(err)
		}
		got, err := b.State()
		if err != nil {
			t.Fatal(err)
		}
		want, err := alone[i].State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: state trained inside the meta differs from the base trained alone", b.Name())
		}
	}

	errA, errB := errors.New("fail a"), errors.New("fail b")
	for _, extras := range [][]predictor.Base{
		{ecg.New(ecg.Config{}), failingBase{err: errA}},                         // the last base fails
		{failingBase{err: errA}, ecg.New(ecg.Config{})},                         // a middle base fails
		{failingBase{err: errB}, ecg.New(ecg.Config{}), failingBase{err: errA}}, // both: the earlier wins
	} {
		m := &predictor.Meta{Stat: predictor.NewStatistical(), Rule: predictor.NewRule(), Extras: extras}
		var want error
		for _, b := range m.Bases() {
			if want = b.TrainSegments(segs); want != nil {
				break
			}
		}
		if got := m.TrainSegments(segs); got != want {
			t.Errorf("bases %v: meta returned %v, the sequential loop %v", m.BaseNames(), got, want)
		}
	}
}
