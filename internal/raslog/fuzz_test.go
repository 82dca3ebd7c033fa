package raslog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The fuzz targets double as robustness unit tests: `go test` runs
// every seed, and `go test -fuzz=FuzzX ./internal/raslog` explores
// further. The parsers must never panic and must reject what they
// cannot round-trip.

// FuzzReaderLocation feeds arbitrary LOCATION fields to the Reader:
// a location it accepts must be one both writers carry, and must
// spell and read back to itself.
func FuzzReaderLocation(f *testing.F) {
	for _, seed := range []string{
		"R00", "R07-M1", "R07-M1-N04", "R07-M1-N04-C32", "R07-M1-N04-I00",
		"R07-M1-L2", "R07-M1-S", "", "?", "R", "R-1", "R00-M2", "R00-M0-X9",
		"R00-M0-N04-C32-Z9", "R99-M1-N99-C99", "R00-M0-NX", "-M0", "R00--N01",
		"R2147483648", "R2147483649", "R4294967296-M0", "R1-M0", "R+07",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		loc, err := readLocation(text)
		if err != nil {
			return
		}
		if !encodable(loc) {
			t.Fatalf("accepted %q as %+v, which the writers refuse", text, loc)
		}
		back, err := readLocation(loc.String())
		if err != nil {
			t.Fatalf("accepted %q -> %+v but cannot re-read %q: %v", text, loc, loc.String(), err)
		}
		if back != loc {
			t.Fatalf("round trip drift: %q -> %+v -> %+v", text, loc, back)
		}
	})
}

// readLocation reads text as the LOCATION of an otherwise good line.
func readLocation(text string) (Location, error) {
	ev, err := NewReader(strings.NewReader("1|RAS|2005-01-21 00:00:00|42|" + text + "|KERNEL|FATAL|x")).Read()
	return ev.Location, err
}

// FuzzReaderLine feeds arbitrary lines to the Reader: a record it
// accepts must be one both writers take, and Writer's line for it must
// read back equal.
func FuzzReaderLine(f *testing.F) {
	f.Add("1|RAS|2005-01-21 00:00:00|42|R01-M0-N02-C03|KERNEL|FATAL|uncorrectable torus error")
	f.Add("1|RAS|2005-01-21 00:00:00|-1|R01|KERNEL|INFO|x")
	f.Add("||||||| ")
	f.Add("1|RAS|bad time|42|R01|KERNEL|FATAL|x")
	f.Add("9223372036854775807|T|2005-01-21 00:00:00|0|?|F|FAILURE|")
	f.Add("-9223372036854775808|T|2262-04-11 23:47:16|0|R2147483648-M1|F|FAILURE|")
	f.Add("0||0000-01-01 0:00:00|0|R00-M0-|||")
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := NewReader(strings.NewReader(line)).Read()
		if err != nil {
			return
		}
		if err := NewWireWriter(io.Discard).Write(&ev); err != nil {
			t.Fatalf("read %q as %+v, which WireWriter refuses: %v", line, ev, err)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(&ev) != nil {
			return // the Reader takes a stray '|' or an empty TYPE, which Writer refuses
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatalf("cannot re-read written record %q: %v", buf.String(), err)
		}
		if back != ev {
			t.Fatalf("round trip drift:\n in  %+v\n out %+v", ev, back)
		}
	})
}

// FuzzReadAnyFile feeds arbitrary file contents to the format sniffer:
// it must never panic, must name the retired format for any file that
// opens with its magic, and must read any file that opens with the
// wire magic exactly as the wire decoder reads its bytes.
func FuzzReadAnyFile(f *testing.F) {
	e1 := mkEvent(1, t0)
	e2 := mkEvent(2, t0.Add(time.Minute))
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	w.Write(&e1)
	w.Write(&e2)
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(wireMagic))
	f.Add([]byte(retiredBinMagic + "\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Add([]byte("1|RAS|2005-01-21 00:00:00|42|R01-M0-N02-C03|KERNEL|FATAL|x\n"))
	f.Add([]byte("BGLRAS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAnyFile(path)
		switch {
		case bytes.HasPrefix(data, []byte(retiredBinMagic)):
			if !errors.Is(err, ErrRetiredBinLog) {
				t.Fatalf("retired-format file read as %d events, err %v", len(got), err)
			}
		case bytes.HasPrefix(data, []byte(wireMagic)):
			want, werr := readWire(bytes.NewReader(data))
			if (err == nil) != (werr == nil) || len(got) != len(want) {
				t.Fatalf("ReadAnyFile = %d events, %v; readWire = %d events, %v", len(got), err, len(want), werr)
			}
		}
	})
}

func FuzzParseSeverity(f *testing.F) {
	for _, s := range []string{"INFO", "FATAL", "FAILURE", "", "fatal", "X"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sev, err := ParseSeverity(text)
		if err != nil {
			return
		}
		if sev.String() != strings.ToUpper(text) {
			t.Fatalf("accepted %q as %v", text, sev)
		}
	})
}

// FuzzCFDRLineRoundTrip: any line the CFDR reader accepts is a record
// both writers accept and both decoders read back equal, so a public
// log converts to the log dialect or the wire without a record its own
// reader refuses. Seeds sit on the range a record's time may take and
// a second past each end, and carry an empty type, a reserved '|' and
// location numbers past what the wire carries.
func FuzzCFDRLineRoundTrip(f *testing.F) {
	for _, line := range strings.Split(cfdrSample, "\n") {
		f.Add(line)
	}
	const line = "- %d 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO parity error"
	for _, sec := range []int64{-1, 0, maxSec, maxSec + 1, math.MinInt64, math.MaxInt64} {
		f.Add(fmt.Sprintf(line, sec))
	}
	for _, line := range []string{
		"- 0 d R02 x R02  KERNEL INFO m", "- 0 d R02 x R02 R|S K|X INFO m|n",
		"- 0 d R9999999999 x l RAS KERNEL INFO m", "- 0 d R02-M1-N0-C:J4611686018427387904-U11 x l RAS KERNEL INFO m",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r := NewCFDRReader(strings.NewReader(line))
		r.Strict = true
		ev, err := r.Read()
		if err != nil {
			return
		}
		var text, wire bytes.Buffer
		tw, ww := NewWriter(&text), NewWireWriter(&wire)
		if err := tw.Write(&ev); err != nil {
			t.Fatalf("Writer refused %+v: %v", ev, err)
		}
		if err := ww.Write(&ev); err != nil {
			t.Fatalf("WireWriter refused %+v: %v", ev, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ww.Flush(); err != nil {
			t.Fatal(err)
		}
		if back, err := NewReader(&text).Read(); err != nil || back != ev {
			t.Fatalf("text decoder read %+v, %v; want %+v", back, err, ev)
		}
		if back, err := NewWireDecoder(&wire).ReadFrame(); err != nil || len(back) != 1 || back[0] != ev {
			t.Fatalf("wire decoder read %+v, %v; want %+v", back, err, ev)
		}
	})
}
