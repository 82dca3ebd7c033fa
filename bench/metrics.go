package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric: its unit, which direction is better, and
// for end-to-end metrics the share of the parent's median by which it
// may worsen before a change counts as a regression. BENCHMARK.json
// mirrors these tables; TestBenchmarkJSONMatchesTables pins the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the harness contract), which is why the issue's
// ack_ms_p50 and retrain_s_p50 are one metric here, op_ms_p50: the
// median latency of the workload's own operation.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is measured only by a traced run. The layer is the prefix
// before the first dot and is a module name under internal/.
var perLayer = []metricDef{
	{Name: "raslog.wire_decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "raslog.wire_bytes_per_rec", Unit: "bytes", Better: "lower"},
	{Name: "raslog.text_decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "raslog.text_bytes_per_rec", Unit: "bytes", Better: "lower"},
	{Name: "raslog.wire_encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "raslog.text_encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "raslog.peek_ns_per_rec", Unit: "ns", Better: "lower"},

	{Name: "catalog.classify_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "catalog.intern_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "catalog.intern_entries", Unit: "count", Better: "lower"},

	{Name: "preprocess.run_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "preprocess.compression_ratio", Unit: "ratio", Better: "higher"},

	{Name: "online.ingest_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "online.single_ingest_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "online.alerts", Unit: "count", Better: "higher"},
	{Name: "online.rejected", Unit: "count", Better: "lower"},
	{Name: "online.state_bytes", Unit: "bytes", Better: "lower"},
	{Name: "online.precision", Unit: "ratio", Better: "higher"},
	{Name: "online.recall", Unit: "ratio", Better: "higher"},

	{Name: "predictor.stat_train_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.rule_train_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.meta_predict_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "predictor.rules", Unit: "count", Better: "higher"},

	{Name: "assoc.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "assoc.transactions", Unit: "count", Better: "higher"},
	{Name: "assoc.frequent_itemsets", Unit: "count", Better: "higher"},

	{Name: "ecg.train_ms", Unit: "ms", Better: "lower"},
	{Name: "ecg.nodes", Unit: "count", Better: "higher"},
	{Name: "ecg.edges", Unit: "count", Better: "higher"},

	{Name: "model.package_save_ms", Unit: "ms", Better: "lower"},
	{Name: "model.load_ms", Unit: "ms", Better: "lower"},
	{Name: "model.bytes", Unit: "bytes", Better: "lower"},

	{Name: "serve.handler_self_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "serve.http_overhead_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.swap_us", Unit: "us", Better: "lower"},
	{Name: "serve.export_shards_us", Unit: "us", Better: "lower"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower"},
	{Name: "serve.deadlined_total", Unit: "count", Better: "lower"},
	{Name: "serve.sse_dropped_total", Unit: "count", Better: "lower"},
	{Name: "serve.ack_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.alert_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.alert_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_late_us_p99", Unit: "us", Better: "lower"},

	{Name: "cluster.gate_self_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.owner_share_max", Unit: "ratio", Better: "lower"},
	{Name: "cluster.forwards_per_req", Unit: "ratio", Better: "lower"},
	{Name: "cluster.replayed_total", Unit: "count", Better: "lower"},

	{Name: "ledger.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "ledger.appends_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "ledger.bytes_per_entry", Unit: "bytes", Better: "lower"},
	{Name: "ledger.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.proof_us", Unit: "us", Better: "lower"},

	{Name: "lifecycle.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "lifecycle.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.recorder_observe_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "lifecycle.retrain_s_max", Unit: "s", Better: "lower"},

	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one measured metric as the harness reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against one of the tables above, so a
// value can only be recorded under a declared name and unit.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// missing lists declared metrics nothing was recorded for.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supportedPercentile is the highest of the reported percentiles that
// still has at least ten samples beyond it in a sample of n — the
// highest tail a sample that size can speak for. 0 when even the
// median has fewer than ten.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		// Round before flooring: 1000*(1-0.99) is 9.999… in floats.
		if beyond := math.Floor(float64(n)*(100-p)/100 + 1e-9); beyond >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
