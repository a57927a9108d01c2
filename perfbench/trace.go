package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"logpopt/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. parent is the id of the span that caused it (0 for an
// operation's root) and op the operation it belongs to.
type span struct {
	id, parent, op int
	name           string
	start, dur     time.Duration // start is relative to the recorder's epoch
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, which is how the untraced comparison pass runs
// the same code.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, op: op, name: name, start: time.Since(r.epoch)})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.dur = time.Since(r.epoch) - s.start
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once, and a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		lo, hi := s.start, s.start+s.dur
		var covered time.Duration
		cur := lo // end of the covered prefix so far
		for _, c := range cs {
			a, b := max(c.start, cur), min(c.start+c.dur, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[i] = s.dur - covered
	}
	return out
}

// layer is one row of the self-time table.
type layer struct {
	name        string
	count       int
	total, self time.Duration
}

// layers folds spans by name, in order of first appearance.
func layers(spans []span) []layer {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layer
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, layer{name: s.name})
		}
		out[j].count++
		out[j].total += s.dur
		out[j].self += self[i]
	}
	return out
}

// writeSelfTable prints the per-layer self-time table of a traced run:
// calls, total and self time per operation, and self time as a share of
// all operations' root time.
func writeSelfTable(w io.Writer, workload string, spans []span, nops int, derived []layer) {
	ls := layers(spans)
	var root time.Duration
	for _, s := range spans {
		if s.parent == 0 {
			root += s.dur
		}
	}
	fmt.Fprintf(w, "self time per layer, %s, %d operations (µs per operation):\n", workload, nops)
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %7s\n", "layer", "calls", "total", "self", "self%")
	row := func(l layer, note string) {
		pct := 0.0
		if root > 0 {
			pct = 100 * float64(l.self) / float64(root)
		}
		fmt.Fprintf(w, "  %-26s %8d %12.1f %12.1f %6.1f%%%s\n", l.name, l.count,
			perOpUS(l.total, nops), perOpUS(l.self, nops), pct, note)
	}
	for _, l := range ls {
		row(l, "")
	}
	for _, l := range derived {
		row(l, "  (derived: parent call minus its separately timed layers)")
	}
}

func perOpUS(d time.Duration, nops int) float64 {
	if nops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(nops)
}

// tracePID is the Perfetto process track of the traced replay.
const tracePID = 1

// writePerfetto writes the spans as Chrome trace-event JSON through
// obs.Tracer, the format the repository's tools already emit: one track,
// wall-clock microseconds, with each span's id, parent and operation as
// args.
func writePerfetto(path, workload string, spans []span) error {
	t := obs.NewTracer()
	t.NameProcess(tracePID, "perfbench "+workload+" traced replay (wall µs)")
	for _, s := range spans {
		t.Span(tracePID, 1, s.name, s.start.Microseconds(), max(s.dur.Microseconds(), 1),
			obs.A("id", s.id), obs.A("parent", s.parent), obs.A("op", s.op))
	}
	return t.WriteFile(path)
}
