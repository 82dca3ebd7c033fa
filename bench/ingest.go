package main

import (
	"fmt"
	"sort"
	"time"

	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
)

// shape is how an ingest workload offers the tail to the system.
type shape struct {
	gate  bool // through a cluster.Gate and two backends, not one server
	text  bool // pipe-text dialect, not binary wire frames
	batch int  // records per POST
	paced bool // open loop on a ledgered server (paced.go), not a flood
}

func (sh shape) newFront(m *predictor.Meta, timed bool) (*front, error) {
	if sh.gate {
		return newGateFront(m, timed)
	}
	return newServeFront(m, serveConfig(serveShards)), nil
}

// maxOwnerShare is the routing skew above which a partition no longer
// exercises both owners: a 4/4 split of the eight keys gives about
// 0.54, a 7/1 split 0.88.
const maxOwnerShare = 0.65

// ownerShareMax is the largest share of events one owner receives.
func ownerShareMax(events []raslog.Event, parts int, owner func(raslog.Location) int) float64 {
	counts := make([]int, parts)
	for i := range events {
		counts[owner(events[i].Location)]++
	}
	most := 0
	for _, c := range counts {
		if c > most {
			most = c
		}
	}
	return float64(most) / float64(len(events))
}

// oracle holds the reference alert stream for one front's partition.
type oracle struct {
	ref    []refAlert
	unique bool // compare as sets (gate)
}

func newOracle(ds *dataset, sh shape) (*oracle, error) {
	// A throwaway front, for the partition it routes by.
	f, err := sh.newFront(ds.model, false)
	if err != nil {
		return nil, err
	}
	defer f.close()
	parts, owner := f.owner()
	if share := ownerShareMax(ds.tail, parts, owner); share > maxOwnerShare {
		return nil, fmt.Errorf("one of %d owners receives %.0f%% of the stream (limit %.0f%%): the routing keys no longer spread",
			parts, share*100, maxOwnerShare*100)
	}
	ref, rejected := reference(ds.model, ds.tail, parts, owner)
	if rejected != 0 {
		return nil, fmt.Errorf("the reference engines rejected %d records: the generated stream is out of order", rejected)
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("the reference raised no alerts over %d records: nothing to check against", len(ds.tail))
	}
	return &oracle{ref: ref, unique: f.gate != nil}, nil
}

// check compares the alerts f has served after the first n records of
// the tail with the reference; "" when they agree.
func (o *oracle) check(f *front, n int) (string, error) {
	got, err := f.alertLines()
	if err != nil {
		return "", err
	}
	want := linesBefore(o.ref, n)
	if o.unique {
		got, want = uniqueSorted(got), uniqueSorted(want)
	} else {
		sort.Strings(got)
	}
	return firstDiff(got, want), nil
}

// runFlood is the closed loop: one client POSTs the tail body after
// body, each pass into a fresh front built and closed outside the
// timer, until the timed passes add up to seconds.
func runFlood(p *prepared, sh shape, orc *oracle, seconds float64, out *outcome) error {
	var rates, lats []float64
	records := 0
	for i := range p.bodies {
		records += p.bodies[i].n
	}
	for timed := 0.0; timed < seconds; {
		f, err := sh.newFront(p.ds.model, false)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := range p.bodies {
			t0 := time.Now()
			err := f.post(&p.bodies[i], sh.text)
			lats = append(lats, ms(time.Since(t0)))
			out.op(err)
		}
		elapsed := time.Since(start).Seconds()
		timed += elapsed
		rates = append(rates, float64(records)/elapsed)

		diff, err := orc.check(f, records)
		f.close()
		if err != nil {
			return err
		}
		out.mismatch(fmt.Sprintf("pass %d", len(rates)), diff)
	}
	out.e2e.set("records_per_s", median(rates))
	out.e2e.set("op_ms_p50", median(lats))
	out.notef("records_per_s: median of %d passes of %d records (min %.0f, max %.0f)",
		len(rates), records, minOf(rates), maxOf(rates))
	out.notef("op_ms_p50: POST of %d records to HTTP 200, n=%d, p%g=%.3f ms",
		sh.batch, len(lats), supportedPercentile(len(lats)), percentile(lats, supportedPercentile(len(lats))))
	return nil
}
