package raslog_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"bglpred/internal/online"
	"bglpred/internal/predictor"
	"bglpred/internal/preprocess"
	"bglpred/internal/raslog"
)

// TestEveryDoorAdmitsOneRange feeds the second before 1970, the two
// ends of the range a record's time may take and the second after it
// to every door a record comes in by, and each must admit exactly the
// two inside.
func TestEveryDoorAdmitsOneRange(t *testing.T) {
	const layout = "2006-01-02 15:04:05"
	good := raslog.Event{RecID: 1, Type: raslog.EventTypeRAS, Time: time.Date(2005, 6, 3, 15, 42, 50, 0, time.UTC),
		JobID: 42, Location: raslog.Location{Kind: raslog.KindComputeChip, Rack: 1, Card: 2, Chip: 3},
		EntryData: "torus error", Facility: "KERNEL", Severity: raslog.Fatal}
	var frame bytes.Buffer
	ww := raslog.NewWireWriter(&frame)
	if err := ww.Write(&good); err != nil {
		t.Fatal(err)
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := raslog.NewWireScanner(&frame).Next()
	if err != nil {
		t.Fatal(err)
	}
	var body []byte // the event record's content, its time delta 0
	if err := f.Records(func(tag byte, _, content []byte) error {
		if tag == raslog.WireTagEvent {
			body = content
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	readText := func(line string) error {
		_, err := raslog.NewReader(strings.NewReader(line)).Read()
		return err
	}
	doors := map[string]func(at time.Time) error{
		"text decoder, one-pass parser": func(at time.Time) error {
			return readText(fmt.Sprintf("1|RAS|%s|42|R01-M0-N02-C03|KERNEL|FATAL|x\n", at.Format(layout)))
		},
		"text decoder, general parser": func(at time.Time) error {
			return readText(fmt.Sprintf("1|RAS|%s|42|R1-M0-N02-C03|KERNEL|FATAL|x\n", at.Format(layout)))
		},
		"wire decoder": func(at time.Time) error {
			b := append(raslog.AppendWireFrameHeader(nil, at.Unix(), f.BaseRecID, len(f.Payload)), f.Payload...)
			_, err := raslog.NewWireDecoder(bytes.NewReader(b)).ReadFrame()
			return err
		},
		"PeekWireRoute": func(at time.Time) error {
			var loc raslog.Location
			_, err := raslog.PeekWireRoute(body, at.Unix(), &loc)
			return err
		},
		"CFDR reader": func(at time.Time) error {
			r := raslog.NewCFDRReader(strings.NewReader(fmt.Sprintf(
				"- %d 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO x\n", at.Unix())))
			r.Strict = true
			_, err := r.Read()
			return err
		},
		"Writer": func(at time.Time) error {
			ev := good
			ev.Time = at
			return raslog.NewWriter(io.Discard).Write(&ev)
		},
		"WireWriter": func(at time.Time) error {
			ev := good
			ev.Time = at
			return raslog.NewWireWriter(io.Discard).Write(&ev)
		},
		"Engine.IngestBatch": func(at time.Time) error {
			ev := good
			ev.Time = at
			if online.New(predictor.NewMeta(), online.Config{}).IngestBatch([]raslog.Event{ev}) != 0 {
				return fmt.Errorf("rejected")
			}
			return nil
		},
		"Engine.Restore": func(at time.Time) error {
			return online.New(predictor.NewMeta(), online.Config{}).Restore(online.State{
				LastSeen: at, LastGC: at,
				Temporal: []preprocess.TemporalEntry{{Job: 42, Last: at, Slot: 0}},
				Spatial:  []preprocess.SpatialEntry{{Job: 42, Entry: "x", Last: at, Slot: 0}},
			})
		},
	}
	for _, c := range []struct {
		at    time.Time
		admit bool
	}{
		{time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC), false},
		{time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC), true},
		{time.Date(2262, 4, 11, 23, 47, 16, 0, time.UTC), true},
		{time.Date(2262, 4, 11, 23, 47, 17, 0, time.UTC), false},
	} {
		for name, door := range doors {
			if err := door(c.at); (err == nil) != c.admit {
				t.Errorf("%s at %v: error %v, want admitted %v", name, c.at, err, c.admit)
			}
		}
	}
	if err := online.New(predictor.NewMeta(), online.Config{}).Restore(online.State{}); err != nil {
		t.Errorf("Restore refused the state of an engine that never ingested: %v", err)
	}
}
