package raslog_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"bglpred/internal/bglsim"
	"bglpred/internal/raslog"
)

// BenchmarkReaderDecode times the text decoder alone, as serve's
// ingest loop drives it: 4096-line Writer bodies of the second half of
// a 4-rack ANL ×0.25 bglsim log at seed 1 (the bench tail, 507 922
// records), decoded through NextEvent/DecodeEvent into a reused batch
// by one pooled Reader re-armed per body. It reports ns/record; one op
// is one body.
//
//	go test -run '^$' -bench BenchmarkReaderDecode -benchtime 300x ./internal/raslog
func BenchmarkReaderDecode(b *testing.B) {
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
		bodies, tail = append(bodies, writeBody(b, tail[:n])), tail[n:]
	}
	gen, tail = nil, nil
	runtime.GC() // the generated log goes before the clock starts

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
