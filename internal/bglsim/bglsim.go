// Package bglsim synthesizes raw Blue Gene/L RAS logs. It stands in
// for the proprietary ANL and SDSC CMCS logs the paper evaluates on
// (see DESIGN.md §2): a machine topology, a job schedule, and a fault
// model produce logical events, which a CMCS duplication model then
// expands into the redundant raw records that Phase 1 preprocessing
// must compress away — every chip of a job's partition reports the
// same fault, and each polling agent repeats reports at sub-second
// granularity while timestamps are recorded in seconds.
package bglsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"bglpred/internal/bglsim/faults"
	"bglpred/internal/bglsim/jobs"
	"bglpred/internal/bglsim/topology"
	"bglpred/internal/catalog"
	"bglpred/internal/raslog"
)

// DupConfig controls the CMCS duplication model: how many raw records
// one logical event expands into.
type DupConfig struct {
	// FatalChipFanoutMean is the mean number of additional compute
	// chips (beyond the first) reporting a job-visible fatal event.
	FatalChipFanoutMean float64
	// NonfatalChipFanoutMean is the same for non-fatal job-visible
	// events.
	NonfatalChipFanoutMean float64
	// IOFanoutMean is the mean additional I/O chips reporting a
	// CIOD-scope event.
	IOFanoutMean float64
	// RepeatMean is the mean number of additional repeats each
	// reporting chip emits (sub-second polling repetition).
	RepeatMean float64
	// CardRepeatMean is the repeat mean for card-scope events (node
	// card, link card, service card, midplane), which only ever have a
	// single reporting location.
	CardRepeatMean float64
	// Spread bounds the time interval the duplicates land in. Keep it
	// below the preprocessor's 300 s threshold so duplicates compress
	// into one unique event.
	Spread time.Duration
}

func (d DupConfig) withDefaults() DupConfig {
	if d.Spread == 0 {
		d.Spread = 2 * time.Minute
	}
	return d
}

// Profile fully describes one synthetic system (ANL-like or
// SDSC-like): machine size, log span, workload, fault model,
// duplication intensity.
type Profile struct {
	// Name labels outputs ("ANL", "SDSC").
	Name string
	// Start and End bound the log span.
	Start, End time.Time
	// FullSpan is the reference span episode counts are calibrated to;
	// Scaled() shrinks End while keeping rates constant.
	FullSpan time.Duration
	// Machine is the topology configuration.
	Machine topology.Config
	// Jobs is the workload configuration.
	Jobs jobs.Config
	// Faults is the fault model (calibrated to paper Table 4).
	Faults faults.Model
	// Dup is the duplication model (calibrated to paper Table 1).
	Dup DupConfig
	// HotMidplaneShare is the fraction of fault episodes placed on
	// midplane 0 of rack 0 — real BG/L logs show failure hotspots
	// (Liang et al.); 0 means uniform placement.
	HotMidplaneShare float64
	// Seed makes generation deterministic.
	Seed uint64
}

// Span returns the profile's current log span.
func (p *Profile) Span() time.Duration { return p.End.Sub(p.Start) }

// Scaled returns a copy whose span is scale times the full span, with
// identical event rates (episode counts scale proportionally). scale
// is clamped to (0, 1].
func (p Profile) Scaled(scale float64) Profile {
	if scale <= 0 {
		scale = 1e-3
	}
	if scale > 1 {
		scale = 1
	}
	p.End = p.Start.Add(time.Duration(float64(p.FullSpan) * scale))
	return p
}

// Result is one generated log with its ground truth.
type Result struct {
	// Profile echoes the generating profile.
	Profile *Profile
	// Events is the raw log: time-sorted records with assigned RecIDs.
	Events []raslog.Event
	// Logical is the deduplicated ground truth, time-sorted.
	Logical []faults.LogicalEvent
	// Schedule is the simulated job history.
	Schedule *jobs.Schedule
	// Machine is the simulated machine.
	Machine *topology.Machine
}

// Generate synthesizes a raw RAS log from the profile.
func Generate(p Profile) (*Result, error) {
	if err := p.Faults.Validate(); err != nil {
		return nil, err
	}
	if !p.End.After(p.Start) {
		return nil, fmt.Errorf("bglsim: profile %q has empty span", p.Name)
	}
	dup := p.Dup.withDefaults()
	rng := rand.New(rand.NewPCG(p.Seed, 0x6267736d))
	machine := topology.New(p.Machine)
	schedule := jobs.Simulate(rng, machine, p.Start, p.End, p.Jobs)
	logical := p.Faults.Synthesize(rng, p.Start, p.End, p.FullSpan)

	mps := machine.Midplanes()
	ex := expander{
		rng:      rng,
		machine:  machine,
		schedule: schedule,
		dup:      dup,
		mps:      mps,
		hotShare: p.HotMidplaneShare,
	}
	for i := range logical {
		ex.expand(&logical[i])
	}
	events, err := storageOrder(ex.blocks)
	if err != nil {
		return nil, err
	}
	return &Result{
		Profile:  &p,
		Events:   events,
		Logical:  logical,
		Schedule: schedule,
		Machine:  machine,
	}, nil
}

// storageOrder returns the records as CMCS stores them: stable-sorted
// by their whole-second timestamps, with record IDs in that order.
// Each sort key packs a record's second, offset from the earliest,
// above its emission index, so both must fit 32 bits.
func storageOrder(blocks [][]raslog.Event) ([]raslog.Event, error) {
	n, first := 0, int64(math.MaxInt64)
	for _, b := range blocks {
		n += len(b)
		for i := range b {
			first = min(first, b[i].Time.Unix())
		}
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("bglsim: %d records overflow the 32-bit sort keys", n)
	}
	keys := make([]uint64, 0, n)
	for _, b := range blocks {
		for i := range b {
			off := b[i].Time.Unix() - first
			if off > math.MaxUint32 {
				return nil, fmt.Errorf("bglsim: a log spanning %d s overflows the 32-bit sort keys", off)
			}
			keys = append(keys, uint64(off)<<32|uint64(len(keys)))
		}
	}
	slices.Sort(keys)
	out := make([]raslog.Event, n)
	for r, k := range keys {
		i := int(k & math.MaxUint32)
		out[r] = blocks[i/blockLen][i%blockLen]
		out[r].RecID = int64(r + 1)
	}
	return out, nil
}

// blockLen is the length of the blocks the expander emits into, so a
// growing log is never copied.
const blockLen = 1 << 14

// expander turns logical events into raw duplicated records.
type expander struct {
	rng      *rand.Rand
	machine  *topology.Machine
	schedule *jobs.Schedule
	dup      DupConfig
	mps      []raslog.Location
	hotShare float64
	blocks   [][]raslog.Event // full blocks of blockLen, then the open one
	perm     []int            // scratch for permOf
}

// push appends one record to the open block.
func (ex *expander) push(e raslog.Event) {
	if n := len(ex.blocks); n == 0 || len(ex.blocks[n-1]) == blockLen {
		ex.blocks = append(ex.blocks, make([]raslog.Event, 0, blockLen))
	}
	b := &ex.blocks[len(ex.blocks)-1]
	*b = append(*b, e)
}

// permOf returns what rng.Perm(n) would, drawing the same random
// numbers, in a buffer reused by the next call.
func (ex *expander) permOf(n int) []int {
	p := slices.Grow(ex.perm[:0], n)[:n]
	for i := range p {
		p[i] = i
	}
	ex.rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	ex.perm = p
	return p
}

// scope classifies where a subcategory's records originate.
type scope int

const (
	scopeCompute scope = iota // compute chips of the detecting job
	scopeIO                   // I/O chips (CIOD)
	scopeNodeCard
	scopeLinkCard
	scopeServiceCard
	scopeMidplane // MMCS/CMCS/BGLMaster system software
)

func scopeFor(sub *catalog.Subcategory) scope {
	switch sub.Facility {
	case catalog.FacApp, catalog.FacKernel, catalog.FacHardware:
		return scopeCompute
	case catalog.FacCiod:
		return scopeIO
	case catalog.FacDiscovery, catalog.FacMonitor:
		return scopeNodeCard
	case catalog.FacLinkcard:
		return scopeLinkCard
	case catalog.FacServiceCard:
		return scopeServiceCard
	default:
		return scopeMidplane
	}
}

// midplaneFor keeps all events of one episode on one midplane, so
// chains and cascades are spatially coherent; noise scatters randomly.
// With HotMidplaneShare set, a matching share of episodes lands on
// midplane 0 (the hotspot), the rest round-robin over the others.
func (ex *expander) midplaneFor(le *faults.LogicalEvent) raslog.Location {
	if le.Episode == 0 {
		return ex.mps[ex.rng.IntN(len(ex.mps))]
	}
	if ex.hotShare > 0 && len(ex.mps) > 1 {
		// Episode-keyed deterministic hash so every event of the
		// episode agrees without shared state.
		h := uint64(le.Episode) * 0x9e3779b97f4a7c15
		if float64(h%1000)/1000 < ex.hotShare {
			return ex.mps[0]
		}
		rest := ex.mps[1:]
		return rest[le.Episode%len(rest)]
	}
	return ex.mps[le.Episode%len(ex.mps)]
}

// detail appends harmless variable text to an entry; it is constant
// across one logical event's duplicates so spatial compression can
// merge them, and distinct between logical events so it never
// over-merges.
func (ex *expander) detail() string {
	switch ex.rng.IntN(4) {
	case 0:
		return fmt.Sprintf(" at 0x%08x", ex.rng.Uint32())
	case 1:
		return fmt.Sprintf(" rc=%d", -(1 + ex.rng.IntN(120)))
	case 2:
		return fmt.Sprintf(" seq=%d", 1+ex.rng.IntN(1<<20))
	default:
		return ""
	}
}

func (ex *expander) expand(le *faults.LogicalEvent) {
	mp := ex.midplaneFor(le)
	entry := le.Sub.Phrase + ex.detail()

	jobID := raslog.NoJob
	if job, ok := ex.schedule.JobAt(le.Time, mp); ok {
		switch scopeFor(le.Sub) {
		case scopeCompute, scopeIO:
			jobID = job.ID
		}
	}

	emit := func(loc raslog.Location, at time.Time) {
		ex.push(raslog.Event{
			Type:      raslog.EventTypeRAS,
			Time:      at.Truncate(time.Second),
			JobID:     jobID,
			Location:  loc,
			EntryData: entry,
			Facility:  le.Sub.Facility,
			Severity:  le.Sub.Severity,
		})
	}
	// jitter places a duplicate inside the spread window.
	jitter := func() time.Time {
		return le.Time.Add(time.Duration(ex.rng.Float64() * float64(ex.dup.Spread)))
	}
	// repeats draws how many records one location emits.
	repeats := func(mean float64) int { return 1 + geometric(ex.rng, mean) }

	switch scopeFor(le.Sub) {
	case scopeCompute:
		fan := ex.dup.NonfatalChipFanoutMean
		if le.Sub.IsFatal() {
			fan = ex.dup.FatalChipFanoutMean
		}
		n := 1 + geometric(ex.rng, fan)
		if max := ex.machine.ChipsPerMidplane(); n > max {
			n = max
		}
		for _, idx := range ex.permOf(ex.machine.ChipsPerMidplane())[:n] {
			loc := ex.machine.ChipByIndex(mp, idx)
			for r := repeats(ex.dup.RepeatMean); r > 0; r-- {
				emit(loc, jitter())
			}
		}
	case scopeIO:
		cfg := ex.machine.Config()
		maxIO := cfg.NodeCardsPerMidplane * cfg.IOChipsPerNodeCard
		n := 1 + geometric(ex.rng, ex.dup.IOFanoutMean)
		if n > maxIO {
			n = maxIO
		}
		for _, k := range ex.permOf(maxIO)[:n] {
			loc := raslog.Location{
				Kind:     raslog.KindIONode,
				Rack:     mp.Rack,
				Midplane: mp.Midplane,
				Card:     k / cfg.IOChipsPerNodeCard,
				Chip:     k % cfg.IOChipsPerNodeCard,
			}
			for r := repeats(ex.dup.RepeatMean); r > 0; r-- {
				emit(loc, jitter())
			}
		}
	case scopeNodeCard:
		loc := ex.machine.RandomNodeCard(ex.rng, mp)
		for r := repeats(ex.dup.CardRepeatMean); r > 0; r-- {
			emit(loc, jitter())
		}
	case scopeLinkCard:
		loc := ex.machine.RandomLinkCard(ex.rng, mp)
		for r := repeats(ex.dup.CardRepeatMean); r > 0; r-- {
			emit(loc, jitter())
		}
	case scopeServiceCard:
		loc := ex.machine.ServiceCard(mp)
		for r := repeats(ex.dup.CardRepeatMean); r > 0; r-- {
			emit(loc, jitter())
		}
	default: // scopeMidplane
		for r := repeats(ex.dup.CardRepeatMean); r > 0; r-- {
			emit(mp, jitter())
		}
	}
}

// geometric draws a geometric variate (support 0,1,2,...) with the
// given mean.
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Inversion: ~Geom(p) with p = 1/(1+mean).
	u := rng.Float64()
	n := int(math.Log(1-u) / math.Log(mean/(1+mean)))
	if n < 0 {
		n = 0
	}
	return n
}
