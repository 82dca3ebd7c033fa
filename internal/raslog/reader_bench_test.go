package raslog_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

// benchTail cuts the second half of a 4-rack ANL ×0.25 bglsim log —
// go run ./bench's tail, 507 922 records at its default seed 1 — into
// 4096-record batches, as the bench cuts its bodies.
func benchTail(tb testing.TB, seed uint64) [][]raslog.Event {
	p := bglsim.ANLProfile().Scaled(0.25)
	p.Machine.Racks, p.Seed = 4, seed
	gen, err := bglsim.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	tail := slices.Clone(gen.Events[len(gen.Events)/2:])
	var batches [][]raslog.Event
	for len(tail) > 0 {
		n := min(len(tail), 4096)
		batches, tail = append(batches, tail[:n]), tail[n:]
	}
	gen = nil
	runtime.GC() // the log's first half goes before the clock starts
	return batches
}

// benchTailBodies is benchTail's batches, each encoded by encode into
// one body.
func benchTailBodies(b *testing.B, encode func(testing.TB, []raslog.Event) []byte) [][]byte {
	batches := benchTail(b, 1)
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		bodies[i] = encode(b, batch)
	}
	batches = nil
	runtime.GC() // the events go before the clock starts
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

// BenchmarkWriterEncode times the text encoder alone: the bench tail's
// 4096-record batches written by one warm Writer into a reused buffer,
// a Flush after each, as bglreplay's sinks write their bodies. It
// reports ns/record; one op is one batch.
//
//	go test -run '^$' -bench BenchmarkWriterEncode -benchtime 300x ./internal/raslog
func BenchmarkWriterEncode(b *testing.B) {
	benchEncode(b, func(w io.Writer) recordWriter { return raslog.NewWriter(w) })
}

// BenchmarkWireWriterEncode is BenchmarkWriterEncode's wire twin.
//
//	go test -run '^$' -bench BenchmarkWireWriterEncode -benchtime 300x ./internal/raslog
func BenchmarkWireWriterEncode(b *testing.B) {
	benchEncode(b, func(w io.Writer) recordWriter { return raslog.NewWireWriter(w) })
}

// recordWriter is what both writers offer.
type recordWriter interface {
	Write(*raslog.Event) error
	Flush() error
}

func benchEncode(b *testing.B, newWriter func(io.Writer) recordWriter) {
	batches := benchTail(b, 1)
	var buf bytes.Buffer
	w := newWriter(&buf)
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		buf.Reset()
		for j := range batch {
			if err := w.Write(&batch[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		records += len(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
