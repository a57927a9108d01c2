package main

import (
	"time"
)

// metricDef is one reported metric and its unit, as BENCHMARK.json lists
// it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), reported for
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports all of them; a layer the workload never reaches reads 0. Layer
// times are self time per operation of the run, so they add up.
var perLayer = []metricDef{
	// Read at the client and from /debug/cache in the untraced window.
	{"client.ttfb_ms", "ms"},
	{"client.transfer_ms", "ms"},
	{"sched.cache.hit_ratio", "ratio"},
	{"sched.cache.evictions", "count"},
	{"sched.cache.bytes", "bytes"},
	// internal/serve/sched, logtime, core, schedule, in-process.
	{"sched.canonicalize.us", "us"},
	{"sched.cache.get_hit.us", "us"},
	{"logtime.tree.us", "us"},
	{"core.expand.us", "us"},
	{"sched.compile.allocs", "count"},
	{"schedule.encode.us", "us"},
	{"schedule.encode.bytes", "bytes"},
	{"schedule.encode.allocs", "count"},
	{"sched.handler.us", "us"},
	{"sched.middleware.us", "us"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	// obs/causal, sim, cliutil, obs/report.
	{"causal.analyze.us", "us"},
	{"cliutil.buildreport.us", "us"},
	{"sim.replay.us", "us"},
	{"sim.events_per_s", "1/s"},
	{"report.write.us", "us"},
	{"cli.process_ms", "ms"},
	// conform and runtime.
	{"conform.sim_strict.us", "us"},
	{"conform.sim_buffered.us", "us"},
	{"conform.runtime_strict.us", "us"},
	{"conform.runtime_buffered.us", "us"},
	{"conform.validator.us", "us"},
	{"conform.diff.us", "us"},
	{"runtime.events_per_s", "1/s"},
	// The traced run itself.
	{"trace.overhead_pct", "%"},
	{"trace.layer_share_pct", "%"},
}

// spanMetric maps a per-layer metric onto the span whose self time it
// reports.
var spanMetric = map[string]string{
	"sched.canonicalize.us":       "sched.canonicalize",
	"sched.cache.get_hit.us":      "sched.cache.get_hit",
	"logtime.tree.us":             "logtime.tree",
	"core.expand.us":              "sched.compile", // Compile's self time: compile minus tree
	"schedule.encode.us":          "schedule.encode",
	"sched.handler.us":            "sched.handler",
	"causal.analyze.us":           "causal.analyze",
	"cliutil.buildreport.us":      "cliutil.buildreport",
	"sim.replay.us":               "sim.replay",
	"report.write.us":             "report.write",
	"conform.sim_strict.us":       "conform.sim_strict",
	"conform.sim_buffered.us":     "conform.sim_buffered",
	"conform.runtime_strict.us":   "conform.runtime_strict",
	"conform.runtime_buffered.us": "conform.runtime_buffered",
	"conform.validator.us":        "conform.validator",
	"sched.middleware.us":         "sched.middleware",
	"conform.diff.us":             "conform.diff",
}

// blockingLayers are, per workload, the spans whose self times partition
// the work the program itself does for an operation, in the program's own
// order. trace.layer_share_pct is the median over operations of their sum
// against the end-to-end time the same operation took in the untraced
// window (time to first byte for serve, wall time for CLIs).
var blockingLayers = map[string][]string{
	serveCold:  {"sched.canonicalize", "sched.cache.get_hit", "logtime.tree", "sched.compile", "schedule.encode"},
	serveHot:   {"sched.canonicalize", "sched.cache.get_hit", "logtime.tree", "sched.compile", "schedule.encode"},
	cliCertify: {"logtime.tree", "sched.compile", "schedule.encode", "causal.analyze", "cliutil.buildreport", "report.write"},
	cliConform: {"conform.cases", "conform.check"},
}

// layerMetrics turns a traced replay into the per-layer metrics. basis[i]
// is operation i's end-to-end time in the untraced window, in ms (0 if it
// did not complete).
func layerMetrics(workload string, tr *tracedRun, basis []float64) map[string]float64 {
	blocking := map[string]bool{}
	for _, name := range blockingLayers[workload] {
		blocking[name] = true
	}
	self := map[string]time.Duration{}
	perOp := make([]time.Duration, tr.nops)
	for i, d := range selfTimes(tr.rec.spans) {
		s := tr.rec.spans[i]
		self[s.name] += d
		if blocking[s.name] {
			perOp[s.op] += d
		}
	}
	for _, l := range tr.derived {
		self[l.name] += l.self
	}
	n := float64(tr.nops)
	out := map[string]float64{}
	for metric, name := range spanMetric {
		out[metric] = float64(self[name].Nanoseconds()) / 1e3 / n
	}
	out["cli.process_ms"] = float64(self["cli.process"].Nanoseconds()) / 1e6 / n
	out["sched.compile.allocs"] = float64(tr.c.compileAllocs) / n
	out["schedule.encode.allocs"] = float64(tr.c.encodeAllocs) / n
	out["schedule.encode.bytes"] = float64(tr.c.encodeBytes) / n
	out["go.alloc_mb_per_op"] = float64(tr.c.opAllocBytes) / 1e6 / n
	out["go.gc_cycles_per_op"] = float64(tr.c.gcCycles) / n
	out["sim.events_per_s"] = rate(tr.c.simEvents, self["sim.replay"]+self["conform.sim_strict"])
	out["runtime.events_per_s"] = rate(tr.c.rtEvents, self["conform.runtime_strict"])
	if tr.bare > 0 {
		out["trace.overhead_pct"] = 100 * (tr.traced - tr.bare).Seconds() / tr.bare.Seconds()
	}
	var shares []float64
	for i, d := range perOp {
		if basis[i] > 0 {
			shares = append(shares, 100*ms(d)/basis[i])
		}
	}
	out["trace.layer_share_pct"] = median(shares)
	return out
}

func rate(events int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(events) / d.Seconds()
}
