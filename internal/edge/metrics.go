package edge

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

var (
	// namespaces are the family prefixes a scrape may carry: the serving
	// daemon's, the cluster gate's, and the audit ledger's (exported
	// into the daemon's exposition). Disjoint, so one scrape config can
	// collect every layer without collisions.
	namespaces = []string{"bglserved_", "bglgate_", "bglledger_"}

	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// Metrics builds one scrape of the Prometheus text exposition (format
// 0.0.4). Callers list families — name, HELP text, value — and Metrics
// owns the spelling: HELP/TYPE headers, label escaping, cumulative le
// buckets. It also holds every family to the naming conventions at
// write time: a namespaces prefix, _total on counters and only on
// counters, non-empty HELP, no family declared twice in a scrape. An
// offending family is left out and the first offence is kept, which
// ServeMetrics turns into a 500 — so a typo fails every test that
// scrapes, not a dashboard weeks later.
type Metrics struct {
	buf  []byte
	seen map[string]bool
	err  error
}

// ServeMetrics answers a scrape with the families fill lists, or with
// 500 naming the first convention error.
func ServeMetrics(w http.ResponseWriter, fill func(*Metrics)) {
	m := &Metrics{seen: make(map[string]bool)}
	fill(m)
	if m.err != nil {
		http.Error(w, m.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(m.buf) // a failed write is the scraper hanging up
}

func (m *Metrics) fail(name, why string) {
	if m.err == nil {
		m.err = fmt.Errorf("edge: metric %s %s", name, why)
	}
}

// family checks the conventions and writes the HELP/TYPE header;
// false means the family was rejected and its samples must not follow.
func (m *Metrics) family(name, help, kind string) bool {
	namespaced := slices.ContainsFunc(namespaces, func(ns string) bool { return strings.HasPrefix(name, ns) })
	total := strings.HasSuffix(name, "_total")
	switch {
	case !namespaced:
		m.fail(name, "lacks a "+strings.Join(namespaces, " / ")+" prefix")
	case help == "":
		m.fail(name, "has no HELP text")
	case m.seen[name]:
		m.fail(name, "is declared twice in one scrape")
	case kind == "counter" && !total:
		m.fail(name, "is a counter and must end in _total")
	case kind != "counter" && total:
		m.fail(name, "is a "+kind+" and must not end in _total")
	default:
		m.seen[name] = true
		m.buf = fmt.Appendf(m.buf, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, kind)
		return true
	}
	return false
}

func (m *Metrics) scalar(name, help, kind string, v int64) {
	if m.family(name, help, kind) {
		m.buf = fmt.Appendf(m.buf, "%s %d\n", name, v)
	}
}

// Counter writes an unlabelled counter family.
func (m *Metrics) Counter(name, help string, v int64) { m.scalar(name, help, "counter", v) }

// Gauge writes an unlabelled integer gauge family.
func (m *Metrics) Gauge(name, help string, v int64) { m.scalar(name, help, "gauge", v) }

// GaugeSeconds writes an unlabelled gauge family of d in seconds.
func (m *Metrics) GaugeSeconds(name, help string, d time.Duration) {
	if m.family(name, help, "gauge") {
		m.buf = fmt.Appendf(m.buf, "%s %g\n", name, d.Seconds())
	}
}

func (m *Metrics) vec(name, help, kind, label string, n int, sample func(i int) (value string, v int64)) {
	if !m.family(name, help, kind) {
		return
	}
	for i := 0; i < n; i++ {
		value, v := sample(i)
		m.buf = fmt.Appendf(m.buf, "%s{%s=\"%s\"} %d\n", name, label, labelEscaper.Replace(value), v)
	}
}

// CounterVec writes a counter family of n samples told apart by one
// label; sample returns the i-th label value and count.
func (m *Metrics) CounterVec(name, help, label string, n int, sample func(i int) (value string, v int64)) {
	m.vec(name, help, "counter", label, n, sample)
}

// GaugeVec is CounterVec for a gauge family.
func (m *Metrics) GaugeVec(name, help, label string, n int, sample func(i int) (value string, v int64)) {
	m.vec(name, help, "gauge", label, n, sample)
}

// LatencyBounds are the bucket bounds (inclusive upper) both daemons
// time their stages on. The range spans a cache-warm engine step (tens
// of microseconds) up to a batch that waited out the shed timeout.
var LatencyBounds = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// Histogram is a lock-free fixed-bucket latency histogram in the
// Prometheus cumulative-bucket style.
type Histogram struct {
	bounds  []time.Duration // inclusive upper bounds, ascending
	buckets []atomic.Int64  // one per bound, non-cumulative internally
	over    atomic.Int64    // observations above the last bound (+Inf)
	sumNS   atomic.Int64
}

// NewHistogram returns a histogram over ascending inclusive upper bounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
}

// Observe records one latency sample. Safe for concurrent use.
func (h *Histogram) Observe(d time.Duration) {
	h.sumNS.Add(int64(d))
	for i, bound := range h.bounds {
		if d <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// Sum is the total of the latencies observed.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Histogram writes h as a histogram family in seconds. _count is the
// cumulative sum just written as the +Inf bucket, not a separately
// kept counter: the format requires the two to be equal, and under
// concurrent Observe two loads never are.
func (m *Metrics) Histogram(name, help string, h *Histogram) {
	if m.family(name, help, "histogram") {
		m.histogram(name, "", h)
	}
}

// HistogramVec writes a histogram family of n histograms told apart by
// one label; sample returns the i-th label value and histogram.
func (m *Metrics) HistogramVec(name, help, label string, n int, sample func(i int) (value string, h *Histogram)) {
	if !m.family(name, help, "histogram") {
		return
	}
	for i := 0; i < n; i++ {
		value, h := sample(i)
		m.histogram(name, label+"=\""+labelEscaper.Replace(value)+"\"", h)
	}
}

// histogram writes h's samples, each carrying the label pair lp ahead
// of le when lp is not empty.
func (m *Metrics) histogram(name, lp string, h *Histogram) {
	sep, labels := "", ""
	if lp != "" {
		sep, labels = ",", "{"+lp+"}"
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		m.buf = fmt.Appendf(m.buf, "%s_bucket{%s%sle=\"%g\"} %d\n", name, lp, sep, bound.Seconds(), cum)
	}
	cum += h.over.Load()
	m.buf = fmt.Appendf(m.buf, "%s_bucket{%s%sle=\"+Inf\"} %d\n%s_sum%s %g\n%s_count%s %d\n",
		name, lp, sep, cum, name, labels, time.Duration(h.sumNS.Load()).Seconds(), name, labels, cum)
}
