package raslog_test

import (
	"bytes"
	"encoding/binary"
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
		"text decoder": func(at time.Time) error {
			return readText(fmt.Sprintf("1|RAS|%s|42|R01-M0-N02-C03|KERNEL|FATAL|x\n", at.Format(layout)))
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

// TestEveryDoorAdmitsOneLocationDomain feeds the locations at the edges
// of the domain the writers carry — a rack of 2^31 and one past it,
// midplane 1 and 2 — to every door that spells a location, each in that
// door's own spelling, and each must admit exactly the ones inside with
// the location unchanged. The CFDR reader keeps a record whose location
// it cannot carry, with the location unknown; that does not admit it.
func TestEveryDoorAdmitsOneLocationDomain(t *testing.T) {
	good := raslog.Event{RecID: 1, Type: raslog.EventTypeRAS, Time: time.Date(2005, 6, 3, 15, 42, 50, 0, time.UTC),
		JobID: 42, Location: raslog.Location{Kind: raslog.KindMidplane, Rack: 1},
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
	var strs, rest []byte // the string-add records, and the event body past its location
	if err := f.Records(func(tag byte, raw, content []byte) error {
		if tag == raslog.WireTagEvent {
			rest = content[3:] // kind, rack 1, midplane 0: one byte each
		} else {
			strs = append(strs, raw...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// wireBody spells loc as WireWriter would, numbers past what it
	// carries included.
	wireBody := func(loc raslog.Location) []byte {
		b := binary.AppendUvarint([]byte{byte(loc.Kind)}, uint64(loc.Rack))
		if loc.Kind == raslog.KindMidplane {
			b = binary.AppendUvarint(b, uint64(loc.Midplane))
		}
		return append(b, rest...)
	}
	withLocation := func(loc raslog.Location) *raslog.Event {
		ev := good
		ev.Location = loc
		return &ev
	}

	doors := map[string]func(loc raslog.Location) (raslog.Location, error){
		"text decoder": func(loc raslog.Location) (raslog.Location, error) {
			ev, err := raslog.NewReader(strings.NewReader("1|RAS|2005-06-03 15:42:50|42|" + loc.String() + "|KERNEL|FATAL|x\n")).Read()
			return ev.Location, err
		},
		"wire decoder": func(loc raslog.Location) (raslog.Location, error) {
			body := wireBody(loc)
			payload := append(binary.AppendUvarint(append(bytes.Clone(strs), raslog.WireTagEvent), uint64(len(body))), body...)
			evs, err := raslog.NewWireDecoder(bytes.NewReader(append(raslog.AppendWireFrameHeader(nil, f.BaseSec, f.BaseRecID, len(payload)), payload...))).ReadFrame()
			if err != nil {
				return raslog.Location{}, err
			}
			return evs[0].Location, nil
		},
		"PeekWireRoute": func(loc raslog.Location) (raslog.Location, error) {
			var got raslog.Location
			_, err := raslog.PeekWireRoute(wireBody(loc), f.BaseSec, &got)
			return got, err
		},
		"CFDR reader": func(loc raslog.Location) (raslog.Location, error) {
			r := raslog.NewCFDRReader(strings.NewReader(fmt.Sprintf(
				"- 1117813370 2005.06.03 %s 2005-06-03-15.42.50.363779 %[1]s RAS KERNEL INFO x\n", loc)))
			r.Strict = true
			ev, err := r.Read()
			return ev.Location, err
		},
		"Writer": func(loc raslog.Location) (raslog.Location, error) {
			return loc, raslog.NewWriter(io.Discard).Write(withLocation(loc))
		},
		"WireWriter": func(loc raslog.Location) (raslog.Location, error) {
			return loc, raslog.NewWireWriter(io.Discard).Write(withLocation(loc))
		},
	}
	for _, c := range []struct {
		loc   raslog.Location
		admit bool
	}{
		{raslog.Location{Kind: raslog.KindRack, Rack: 1 << 31}, true},
		{raslog.Location{Kind: raslog.KindRack, Rack: 1<<31 + 1}, false},
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1 << 31, Midplane: 1}, true},
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1<<31 + 1, Midplane: 1}, false},
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1, Midplane: 1}, true},
		{raslog.Location{Kind: raslog.KindMidplane, Rack: 1, Midplane: 2}, false},
	} {
		for name, door := range doors {
			got, err := door(c.loc)
			if admitted := err == nil && got == c.loc; admitted != c.admit {
				t.Errorf("%s on %+v: got %+v, error %v; want admitted %v", name, c.loc, got, err, c.admit)
			}
		}
	}
}
