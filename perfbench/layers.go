package main

import (
	"fmt"
	"time"
)

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit string
	// value computes the metric for one traced pass.
	value func(p measured, self map[string]time.Duration) float64
}

func spanSeconds(names ...string) func(measured, map[string]time.Duration) float64 {
	return func(_ measured, self map[string]time.Duration) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
}

func count(name string) func(measured, map[string]time.Duration) float64 {
	return func(p measured, _ map[string]time.Duration) float64 { return p.counts[name] }
}

// exploreSpans are the spans whose self time is state exploration.
var exploreSpans = []string{"explore.phase1", "explore.phase2", "explore.concrete", "explore.hybrid", "explore.symbolic"}

func serveP50(pick func(*serveCounters) []time.Duration) func(measured, map[string]time.Duration) float64 {
	return func(p measured, _ map[string]time.Duration) float64 {
		if p.serve == nil {
			return 0
		}
		v, _ := percentileMS(pick(p.serve), 0.50)
		return v
	}
}

func serveCount(pick func(*serveCounters) int64) func(measured, map[string]time.Duration) float64 {
	return func(p measured, _ map[string]time.Duration) float64 {
		if p.serve == nil {
			return 0
		}
		return float64(pick(p.serve))
	}
}

// layerDefs lists every per-layer metric, grouped by module. Times are
// self times summed over one pass; counts are per pass.
var layerDefs = []layerDef{
	{"ct.compile_s", "s", spanSeconds("ct.compile")},
	{"ct.programs", "count", count("ct.programs")},

	{"explore.concrete_s", "s", spanSeconds("explore.phase1", "explore.phase2", "explore.concrete")},
	{"explore.phase1_s", "s", spanSeconds("explore.phase1")},
	{"explore.phase2_s", "s", spanSeconds("explore.phase2")},
	{"explore.hybrid_s", "s", spanSeconds("explore.hybrid")},
	{"explore.symbolic_s", "s", spanSeconds("explore.symbolic")},
	{"explore.states", "count", count("explore.states")},
	{"explore.paths", "count", count("explore.paths")},
	{"explore.budget_hits", "count", count("explore.budget_hits")},
	{"explore.us_per_state", "us", func(p measured, self map[string]time.Duration) float64 {
		states := p.counts["explore.states"]
		if states == 0 {
			return 0
		}
		return spanSeconds(exploreSpans...)(p, self) * 1e6 / states
	}},

	{"solver.queries", "count", count("solver.queries")},
	{"solver.cache_hits", "count", count("solver.cache_hits")},
	{"solver.definite_unsats", "count", count("solver.definite_unsats")},
	{"solver.prop_pruned", "count", count("solver.prop_pruned")},
	{"solver.probe_iters", "count", count("solver.probe_iters")},

	{"taint.static_s", "s", spanSeconds("taint.static")},
	{"taint.certified", "count", count("taint.certified")},

	{"repair.s", "s", spanSeconds("repair")},
	{"repair.rounds", "count", count("repair.rounds")},
	{"repair.fences", "count", count("repair.fences")},

	{"serve.hit_p50_ms", "ms", serveP50(func(s *serveCounters) []time.Duration { return s.hits })},
	{"serve.miss_p50_ms", "ms", serveP50(func(s *serveCounters) []time.Duration { return s.misses })},
	{"serve.hit_ratio", "ratio", func(p measured, _ map[string]time.Duration) float64 {
		if p.serve == nil {
			return 0
		}
		s := p.serve
		return ratio(len(s.hits), len(s.hits)+len(s.misses)+len(s.coalesced))
	}},
	{"serve.analyses", "count", serveCount(func(s *serveCounters) int64 { return s.analyses })},
	{"serve.coalesced", "count", serveCount(func(s *serveCounters) int64 { return s.coalescedN })},
	{"serve.rejected", "count", serveCount(func(s *serveCounters) int64 { return s.rejected })},

	{"go.alloc_mb", "MB", func(p measured, _ map[string]time.Duration) float64 { return float64(p.rt.allocBytes) / (1 << 20) }},
	{"go.gc_cycles", "count", func(p measured, _ map[string]time.Duration) float64 { return float64(p.rt.gcCycles) }},
	{"go.gc_cpu_s", "s", func(p measured, _ map[string]time.Duration) float64 { return p.rt.gcCPU }},
}

// timeUnits are the units of per-layer times, which are scaled to the
// reference machine like the end-to-end ones.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true}

// layerMetrics reports each per-layer metric as its median over the
// traced passes, plus the tracing overhead: the traced passes' median
// wall time against the untraced passes' of the same run.
func layerMetrics(traced, untraced []measured) map[string]metric {
	out := make(map[string]metric, len(layerDefs)+2)
	selfs := make([]map[string]time.Duration, len(traced))
	for i, p := range traced {
		selfs[i] = selfTimes(p.spans)
	}
	for _, d := range layerDefs {
		vals := make([]float64, 0, len(traced))
		for i, p := range traced {
			v := d.value(p, selfs[i])
			if timeUnits[d.unit] {
				v *= p.scale
			}
			vals = append(vals, v)
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	var tw, uw, spans []float64
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds()*p.scale)
		spans = append(spans, float64(len(p.spans)))
	}
	for _, p := range untraced {
		uw = append(uw, p.wall.Seconds()*p.scale)
	}
	overhead := 100 * (median(tw)/median(uw) - 1)
	out["trace.overhead_pct"] = metric{overhead, "%"}
	out["trace.spans"] = metric{median(spans), "count"}
	fmt.Printf("tracing: traced pass median %.4f s, untraced %.4f s, overhead %+.2f%%\n", median(tw), median(uw), overhead)
	return out
}
