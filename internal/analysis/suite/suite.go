// Package suite assembles the bglvet registry: the four invariant
// analyzers plus the policy of which packages each one patrols.
//
// wrapsentinel applies everywhere — errors.Is-visible sentinels are a
// repo-wide contract. determinism is scoped to the pipeline packages
// whose outputs must be byte-stable run to run. lockorder patrols the
// packages that own mutexes (serve, cluster, edge, ledger, lifecycle,
// online), and hotpathalloc the packages the //bglvet:hotpath roots
// and their call closures live in (raslog, serve, edge, online,
// preprocess, catalog, lifecycle, cluster).
package suite

import (
	"strings"

	"bglpred/internal/analysis"
	"bglpred/internal/analysis/determinism"
	"bglpred/internal/analysis/hotpathalloc"
	"bglpred/internal/analysis/lockorder"
	"bglpred/internal/analysis/wrapsentinel"
)

// All returns the full analyzer registry in name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hotpathalloc.Analyzer,
		lockorder.Analyzer,
		wrapsentinel.Analyzer,
	}
}

// Known is the registry as a name set — the validator for
// //bglvet:ignore comments, which must name a real analyzer even when
// only a subset runs.
func Known() map[string]bool {
	out := make(map[string]bool)
	for _, a := range All() {
		out[a.Name] = true
	}
	return out
}

// deterministicPkgs are the pipeline stages whose outputs feed
// experiment artifacts and must be byte-identical across runs
// (ROADMAP: "two runs of the pipeline produce identical tables").
var deterministicPkgs = map[string]bool{
	"preprocess":  true,
	"assoc":       true,
	"catalog":     true,
	"predictor":   true,
	"ecg":         true,
	"eval":        true,
	"report":      true,
	"experiments": true,
}

// concurrencyPkgs own the mutexes lockorder patrols: the serving
// layer's shard supervisors, the cluster gate's replay loops, the
// edge's SSE broker and inspection ring, the ledger's group-commit
// leader, lifecycle's retrain machinery and the online engine's
// dual-lock emission path.
var concurrencyPkgs = []string{
	"internal/serve", "internal/cluster", "internal/edge",
	"internal/ledger", "internal/lifecycle", "internal/online",
}

// hotPkgs hold the //bglvet:hotpath roots (binwire decoding,
// serve/online ingest, the cluster gate's wire routing scan,
// lifecycle's Recorder.Observe — which serve's ingest
// reaches through a func value the call graph cannot follow) and the
// packages their call closures stay within
// (serve's ingest parks records in an edge.Ring and times hand-offs
// with an edge.Histogram; online's ingest and the recorder step
// preprocess's Compressor).
var hotPkgs = []string{
	"internal/raslog", "internal/serve", "internal/edge",
	"internal/online", "internal/preprocess", "internal/catalog",
	"internal/lifecycle", "internal/cluster",
}

// Filter is the default package-scoping policy.
func Filter(pkgPath, analyzer string) bool {
	switch analyzer {
	case determinism.Analyzer.Name:
		return deterministicPkgs[lastElem(pkgPath)]
	case lockorder.Analyzer.Name:
		return hasSuffixIn(pkgPath, concurrencyPkgs)
	case hotpathalloc.Analyzer.Name:
		return hasSuffixIn(pkgPath, hotPkgs)
	}
	return true
}

func hasSuffixIn(pkgPath string, suffixes []string) bool {
	for _, suffix := range suffixes {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return true
		}
	}
	return false
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// New returns the default suite: every analyzer, default scoping.
func New() *analysis.Suite {
	return &analysis.Suite{Analyzers: All(), Filter: Filter, Known: Known()}
}
