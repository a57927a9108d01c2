package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	goruntime "runtime"
	"time"

	"logpopt/internal/cliutil"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/obs/causal"
	"logpopt/internal/runtime"
	"logpopt/internal/serve/sched"
	"logpopt/internal/sim"
)

// overheadOps is how many leading operations of a traced replay are also
// run without the recorder, to measure what tracing costs.
const overheadOps = 4

// counts are the traced replay's per-run totals beside the spans.
type counts struct {
	compileAllocs, encodeAllocs uint64
	encodeBytes                 int64
	opAllocBytes                uint64 // heap bytes allocated inside each op's measured call
	gcCycles                    uint32
	simEvents, rtEvents         int64
}

// tracedRun is what the in-process traced replay of a workload measured.
type tracedRun struct {
	rec     *recorder
	nops    int
	c       counts
	derived []layer       // residual layers: a call minus its separately timed parts
	traced  time.Duration // the leading operations' layers, traced …
	bare    time.Duration // … and the same calls without the recorder
	errors  []string
}

// memDelta runs f between two exact heap readings (ReadMemStats flushes
// every P's allocation cache) and returns the objects and bytes it
// allocated and the GC cycles that completed meanwhile. With a nil
// recorder f runs unmeasured.
func memDelta(rec *recorder, f func()) (objects, bytes uint64, gcs uint32) {
	if rec == nil {
		f()
		return 0, 0, 0
	}
	var a, b goruntime.MemStats
	goruntime.ReadMemStats(&a)
	f()
	goruntime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC
}

// compileSpans runs sched.Compile for (m, op) under a "sched.compile" span
// whose tree builder records its own "logtime.tree" child span, then
// encodes the schedule under "schedule.encode" the way the service's cache
// and logpsched do.
func compileSpans(rec *recorder, i, parent int, m logp.Machine, op, ctor string, k int, deadline logp.Time, c *counts) (*sched.Compiled, error) {
	if ctor == "" {
		ctor = "auto"
	}
	plain, _, err := logtime.Select(ctor, m.P)
	if err != nil {
		return nil, err
	}
	tb := plain
	var cs int
	if rec != nil {
		tb = func(m logp.Machine, p int) *core.Tree {
			id := rec.begin(i, cs, "logtime.tree")
			defer rec.end(id)
			return plain(m, p)
		}
	}
	var comp *sched.Compiled
	objs, _, _ := memDelta(rec, func() {
		cs = rec.begin(i, parent, "sched.compile")
		comp, err = sched.Compile(m, op, k, deadline, tb)
		rec.end(cs)
	})
	if err != nil {
		return nil, err
	}
	var w crcWriter
	eobjs, _, _ := memDelta(rec, func() {
		id := rec.begin(i, parent, "schedule.encode")
		err = comp.S.WriteJSON(&w)
		rec.end(id)
	})
	if rec != nil {
		c.compileAllocs += objs
		c.encodeAllocs += eobjs
		c.encodeBytes += w.n
	}
	return comp, err
}

// crcResponse is an http.ResponseWriter that keeps only the status and the
// body's CRC, so the in-process handler writes its megabytes nowhere.
type crcResponse struct {
	header http.Header
	status int
	body   crcWriter
}

func (w *crcResponse) Header() http.Header { return w.header }
func (w *crcResponse) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *crcResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// serveOne runs one request through the in-process handler.
func serveOne(h http.Handler, op Op) *crcResponse {
	w := &crcResponse{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, op.URL(""), nil))
	return w
}

func cacheMisses(c *sched.Cache) int64 {
	var t sched.ShardStats
	for _, s := range c.Stats() {
		t.Add(s)
	}
	return t.Misses
}

// traceServe replays a serve workload in-process: each request through
// API.Handler().ServeHTTP on a cache configured like logpservd's, then the
// same request's layers called one by one — canonicalize, and either the
// cache hit or (where the handler missed) compile and encode.
func traceServe(workload string, ops []Op, refOf map[sched.Request]ref) *tracedRun {
	tr := &tracedRun{rec: newRecorder(), nops: len(ops)}
	rec := tr.rec
	newAPI := func() (*sched.Cache, http.Handler) {
		reg := obs.NewRegistry()
		cache := sched.NewCache(cacheShards, cacheBudget, reg)
		api := sched.NewAPI(sched.Options{Cache: cache, Registry: reg})
		api.SetReady(true)
		h := api.Handler()
		if workload == serveHot {
			for _, r := range hotSet() {
				serveOne(h, Op{Req: r})
			}
		}
		return cache, h
	}
	oc, oh := newAPI()
	var scratch counts
	tr.measureOverhead(len(ops), func(i int) func(*recorder) error {
		misses := cacheMisses(oc)
		serveOne(oh, ops[i])
		missed := cacheMisses(oc) > misses
		return func(r *recorder) error { return serveLayers(r, i, 0, ops[i].Req, oc, missed, &scratch) }
	})
	cache, h := newAPI()
	var middleware time.Duration
	for i, op := range ops {
		root := rec.begin(i, 0, "op")
		misses := cacheMisses(cache)
		var hs int
		var resp *crcResponse
		_, bytes, gcs := memDelta(rec, func() {
			req := httptest.NewRequest(http.MethodGet, op.URL(""), nil)
			w := &crcResponse{header: http.Header{}}
			hs = rec.begin(i, root, "sched.handler")
			h.ServeHTTP(w, req)
			rec.end(hs)
			resp = w
		})
		tr.c.opAllocBytes += bytes
		tr.c.gcCycles += gcs
		if resp.status != http.StatusOK {
			tr.errors = append(tr.errors, fmt.Sprintf("op %d: handler status %d", i, resp.status))
		} else if err := refOf[op.Req].check(resp.body.sum()); err != nil {
			tr.errors = append(tr.errors, fmt.Sprintf("op %d: handler %v", i, err))
		}
		missed := cacheMisses(cache) > misses

		first := len(rec.spans)
		if err := serveLayers(rec, i, root, op.Req, cache, missed, &tr.c); err != nil {
			tr.errors = append(tr.errors, fmt.Sprintf("op %d: %v", i, err))
		}
		rec.end(root)
		middleware += rec.spans[hs-1].dur - directChildren(rec.spans[first:], root)
	}
	tr.derived = []layer{{name: "sched.middleware", count: len(ops), total: middleware, self: middleware}}
	return tr
}

// serveLayers is one request's layers, each called directly.
func serveLayers(rec *recorder, i, parent int, req sched.Request, cache *sched.Cache, missed bool, c *counts) error {
	id := rec.begin(i, parent, "sched.canonicalize")
	key, err := sched.Canonicalize(req, "auto")
	rec.end(id)
	if err != nil {
		return err
	}
	if !missed {
		id := rec.begin(i, parent, "sched.cache.get_hit")
		_, out, err := cache.Get(key)
		rec.end(id)
		if err == nil && out != sched.Hit {
			err = fmt.Errorf("%s: cache answered %s right after serving it", key, out)
		}
		return err
	}
	_, err = compileSpans(rec, i, parent, key.Machine(), key.Op, key.Constructor, key.K, key.Deadline, c)
	return err
}

// directChildren sums the durations of spans whose parent is id.
func directChildren(spans []span, id int) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.parent == id {
			d += s.dur
		}
	}
	return d
}

// measureOverhead times the layers of the leading overheadOps operations
// with a throwaway recorder and with none, four runs each in the order
// traced, bare, bare, traced, so drift within the pair cancels; the
// difference is what tracing costs. prep readies operation i (outside the
// timing) and returns its layers.
func (tr *tracedRun) measureOverhead(n int, prep func(i int) func(*recorder) error) {
	scratch := newRecorder()
	for i := 0; i < min(n, overheadOps); i++ {
		layers := prep(i)
		for _, r := range []*recorder{scratch, nil, nil, scratch} {
			t := time.Now()
			layers(r) //nolint:errcheck // the main pass reports errors
			if r == nil {
				tr.bare += time.Since(t)
			} else {
				tr.traced += time.Since(t)
			}
		}
	}
}

// traceCertify replays cli-certify in-process: the layers logpsched -report
// runs, each called directly, plus a separate strict-sim replay. walls are
// the untraced run's per-invocation wall times; what the layers do not
// account for is the process's own cost (start-up, flag parsing, exit).
func traceCertify(env *benchEnv, ops []Op, walls []time.Duration) *tracedRun {
	tr := &tracedRun{rec: newRecorder(), nops: len(ops)}
	rec := tr.rec
	path := filepath.Join(env.work, "traced-report.json")
	var scratch counts
	tr.measureOverhead(len(ops), func(i int) func(*recorder) error {
		return func(r *recorder) error { return certifyLayers(r, i, 0, ops[i], path, &scratch) }
	})
	var process time.Duration
	for i, op := range ops {
		root := rec.begin(i, 0, "op")
		first := len(rec.spans)
		var err error
		_, bytes, gcs := memDelta(rec, func() { err = certifyLayers(rec, i, root, op, path, &tr.c) })
		tr.c.opAllocBytes += bytes
		tr.c.gcCycles += gcs
		rec.end(root)
		if err == nil {
			err = checkReport(path, op)
		}
		if err != nil {
			tr.errors = append(tr.errors, fmt.Sprintf("op %d: %v", i, err))
		}
		inCLI := directChildren(rec.spans[first:], root)
		for _, s := range rec.spans[first:] {
			if s.parent == root && s.name == "sim.replay" {
				inCLI -= s.dur // the extra replay is the benchmark's, not logpsched's
			}
		}
		process += walls[i] - inCLI
	}
	tr.derived = []layer{{name: "cli.process", count: len(ops), total: process, self: process}}
	return tr
}

// certifyLayers is one `logpsched -op X -P n -report FILE` run, layer by
// layer, in logpsched's order, followed by a strict-sim replay timed alone.
func certifyLayers(rec *recorder, i, parent int, op Op, path string, c *counts) error {
	r := op.Req
	m := logp.Machine{P: r.P, L: r.L, O: r.O, G: r.G}
	comp, err := compileSpans(rec, i, parent, m, r.Op, "", r.K, r.Deadline, c)
	if err != nil {
		return err
	}
	s := comp.S
	id := rec.begin(i, parent, "causal.analyze")
	crep := causal.Analyze(s, conform.DerivedOrigins(s))
	rec.end(id)
	id = rec.begin(i, parent, "cliutil.buildreport")
	rep := cliutil.BuildReport("logpsched", r.Op, s, conform.DerivedOrigins(s), comp.Bound, crep)
	rec.end(id)
	_, rep.Constructor, _ = logtime.Select("auto", m.P)
	id = rec.begin(i, parent, "report.write")
	if err = rep.Validate(); err == nil {
		err = rep.WriteFile(path)
	}
	rec.end(id)
	if err != nil {
		return err
	}
	origins := conform.DerivedOrigins(s)
	id = rec.begin(i, parent, "sim.replay")
	_, simRep := sim.Run(s, sim.Strict, origins)
	rec.end(id)
	if rec != nil {
		c.simEvents += int64(len(s.Events))
	}
	if len(simRep.Violations) > 0 {
		return fmt.Errorf("strict sim: %d violations", len(simRep.Violations))
	}
	return nil
}

// conformBackend is one of the five conformance backends, named as the
// per-layer metrics name it.
type conformBackend struct {
	name string
	b    conform.Backend
}

// traceConform replays cli-conform in-process: for every case of every
// invocation, Checker.Check as logpconform calls it, then each backend's
// Replay timed on its own; the diff layer is Check minus the backends.
func traceConform(ops []Op) *tracedRun {
	tr := &tracedRun{rec: newRecorder(), nops: len(ops)}
	rec := tr.rec
	ck := conform.NewChecker()
	backends := []conformBackend{
		{"sim_strict", &conform.SimBackend{Mode: sim.Strict}},
		{"sim_buffered", &conform.SimBackend{Mode: sim.Buffered}},
		{"runtime_strict", conform.RuntimeBackend{Mode: runtime.Strict}},
		{"runtime_buffered", conform.RuntimeBackend{Mode: runtime.Buffered}},
		{"validator", conform.ValidatorBackend{}},
	}
	var scratch counts
	tr.measureOverhead(len(ops), func(i int) func(*recorder) error {
		return func(r *recorder) error { return conformLayers(r, i, 0, ops[i], ck, backends, &scratch) }
	})
	var diff time.Duration
	for i, op := range ops {
		root := rec.begin(i, 0, "op")
		first := len(rec.spans)
		var err error
		_, bytes, gcs := memDelta(rec, func() { err = conformLayers(rec, i, root, op, ck, backends, &tr.c) })
		tr.c.opAllocBytes += bytes
		tr.c.gcCycles += gcs
		rec.end(root)
		if err != nil {
			tr.errors = append(tr.errors, fmt.Sprintf("op %d: %v", i, err))
		}
		for _, s := range rec.spans[first:] {
			switch {
			case s.name == "conform.check":
				diff += s.dur
			case s.parent == root && s.name != "conform.cases":
				diff -= s.dur
			}
		}
	}
	tr.derived = []layer{{name: "conform.diff", count: len(ops), total: diff, self: diff}}
	return tr
}

// conformLayers is one logpconform invocation: build its cases the way the
// command does (scale cases, then the seeded random cases), then check each.
func conformLayers(rec *recorder, i, parent int, op Op, ck *conform.Checker, backends []conformBackend, c *counts) error {
	id := rec.begin(i, parent, "conform.cases")
	cases := conform.ScaleCases(op.Scale)
	for seed := op.Start; seed < op.Start+int64(op.Seeds); seed++ {
		cases = append(cases, conform.Generate(seed))
	}
	rec.end(id)
	for _, cs := range cases {
		id := rec.begin(i, parent, "conform.check")
		diffs := ck.Check(cs)
		rec.end(id)
		if len(diffs) > 0 {
			return fmt.Errorf("%s diverged: %s", cs.Name, diffs[0])
		}
		for _, b := range backends {
			id := rec.begin(i, parent, "conform."+b.name)
			res := b.b.Replay(cs)
			rec.end(id)
			if rec == nil {
				continue
			}
			switch b.name {
			case "sim_strict":
				c.simEvents += int64(len(res.Trace.Events))
			case "runtime_strict":
				c.rtEvents += int64(len(res.Trace.Events))
			}
		}
	}
	return nil
}
