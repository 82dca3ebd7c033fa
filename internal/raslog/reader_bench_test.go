package raslog_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

// benchTailBodies cuts the second half of a 4-rack ANL ×0.25 bglsim log
// at seed 1 — go run ./bench's tail, 507 922 records — into
// 4096-record bodies encoded by encode.
func benchTailBodies(b *testing.B, encode func(testing.TB, []raslog.Event) []byte) [][]byte {
	p := bglsim.ANLProfile().Scaled(0.25)
	p.Machine.Racks, p.Seed = 4, 1 // go run ./bench's dataset at its default seed
	gen, err := bglsim.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	tail := gen.Events[len(gen.Events)/2:]
	var bodies [][]byte
	for len(tail) > 0 {
		n := min(len(tail), 4096)
		bodies, tail = append(bodies, encode(b, tail[:n])), tail[n:]
	}
	gen, tail = nil, nil
	runtime.GC() // the generated log goes before the clock starts
	return bodies
}

// BenchmarkReaderDecode times the text decoder alone, as serve's
// ingest loop drives it: 4096-line Writer bodies of the bench tail,
// decoded through NextEvent/DecodeEvent into a reused batch by one
// pooled Reader re-armed per body. It reports ns/record; one op is one
// body.
//
//	go test -run '^$' -bench BenchmarkReaderDecode -benchtime 300x ./internal/raslog
func BenchmarkReaderDecode(b *testing.B) {
	bodies := benchTailBodies(b, writeBody)
	var br bytes.Reader
	rd := raslog.NewReader(&br)
	batch := make([]raslog.Event, 4096)
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(bodies[i%len(bodies)])
		rd.Reset(&br)
		for n := 0; ; n++ {
			if _, err := rd.NextEvent(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				records += n
				break
			}
			if err := rd.DecodeEvent(&batch[n]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkWireDecode is BenchmarkReaderDecode's wire twin: 4096-record
// WireWriter bodies of the bench tail, decoded through
// NextEvent/DecodeEvent by one pooled WireDecoder re-armed per body,
// each record placed at the end of one of two reused batches picked by
// its location as a two-shard server picks its shard. It reports
// ns/record; one op is one body.
//
//	go test -run '^$' -bench BenchmarkWireDecode -benchtime 300x ./internal/raslog
func BenchmarkWireDecode(b *testing.B) {
	bodies := benchTailBodies(b, writeWireBody)
	var br bytes.Reader
	d := raslog.NewWireDecoder(&br)
	var batches [2][]raslog.Event
	for i := range batches {
		batches[i] = make([]raslog.Event, 0, 4096)
	}
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(bodies[i%len(bodies)])
		d.Reset(&br)
		for {
			loc, err := d.NextEvent()
			if err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
			key := loc.Rack * 2
			if loc.Kind > raslog.KindRack {
				key += loc.Midplane
			}
			batch := &batches[key%2]
			n := len(*batch)
			if err := d.DecodeEvent(&(*batch)[:n+1][n]); err != nil {
				b.Fatal(err)
			}
			*batch = (*batch)[:n+1]
		}
		for j := range batches {
			records += len(batches[j])
			batches[j] = batches[j][:0]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// writeWireBody encodes events as WireWriter frames.
func writeWireBody(t testing.TB, events []raslog.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWireWriter(&buf)
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
