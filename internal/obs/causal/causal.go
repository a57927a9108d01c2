// Package causal reconstructs the causal structure of an executed LogP
// schedule and explains its finish time. Every event becomes a node of a
// DAG whose edges are the machine constraints that forced the event's start
// time:
//
//   - a latency edge from each send to its matching receive (the receive
//     cannot start before send + o + L, so the item is available L + 2o
//     after the send began);
//   - a gap edge between successive sends (or successive receives) at the
//     same port (spacing at least g);
//   - a busy edge from any positive-duration predecessor at the same
//     processor (overhead and compute intervals serialize a processor);
//   - an availability edge from the receive (or the origin injection) that
//     first made a sent item available at its sender.
//
// Walking back from the event that realizes the finish time, always through
// the *binding* (latest-bound) constraint, yields the critical path: the
// chain of events that determines when the run completes. Each traversed
// edge contributes its elapsed cycles to exactly one component — latency L,
// overhead o, gap g, or compute — and any cycles an event started later
// than every one of its constraints demanded land in the wait component, so
//
//	Finish = Latency + Overhead + Gap + Compute + Origin + Wait
//
// holds as an identity (the fuzz target FuzzCausal exercises it). Comparing
// the achieved breakdown against a reference breakdown of a closed-form
// lower bound (Theorem 2.1 broadcast, Theorem 3.1/3.6 k-item, Section 4.1
// all-to-all, Section 5 summation) attributes the gap above the bound to
// the constraint class that ate the slack.
//
// A backward pass over the same DAG additionally computes per-event slack:
// how far each event could slip without moving the finish time. Events on
// the critical path of a tight schedule have slack zero.
package causal

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// EdgeKind classifies the constraint an edge of the causal DAG models.
type EdgeKind int

// Edge kinds. KindStart marks a path root with no constraint at all (its
// whole start time is wait); KindOrigin marks a root pinned by an item
// injection at a given time.
const (
	KindStart EdgeKind = iota
	KindOrigin
	KindLatency // recv after matching send: bound = send.start + o + L
	KindGap     // same-port same-op spacing: bound = prev.start + g
	KindBusy    // processor serialization: bound = prev.start + prev.dur
	KindAvail   // item availability at a sender: bound = recv.start + o
	KindCompute // serialization behind a compute interval
)

func (k EdgeKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindOrigin:
		return "origin"
	case KindLatency:
		return "latency"
	case KindGap:
		return "gap"
	case KindBusy:
		return "busy"
	case KindAvail:
		return "avail"
	case KindCompute:
		return "compute"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// Breakdown decomposes a stretch of cycles into the LogP constraint classes
// that account for them.
type Breakdown struct {
	Latency  logp.Time // cycles in flight (L per traversed message)
	Overhead logp.Time // send/receive overhead cycles (o per port action)
	Gap      logp.Time // port spacing cycles (g per binding gap edge)
	Compute  logp.Time // local computation cycles
	Origin   logp.Time // time before the path's root item was injected
	Wait     logp.Time // cycles no constraint demanded (idle / buffer wait)
}

// Total returns the sum of all components.
func (b Breakdown) Total() logp.Time {
	return b.Latency + b.Overhead + b.Gap + b.Compute + b.Origin + b.Wait
}

// Sub returns the componentwise difference a - r.
func (b Breakdown) Sub(r Breakdown) Breakdown {
	return Breakdown{
		Latency:  b.Latency - r.Latency,
		Overhead: b.Overhead - r.Overhead,
		Gap:      b.Gap - r.Gap,
		Compute:  b.Compute - r.Compute,
		Origin:   b.Origin - r.Origin,
		Wait:     b.Wait - r.Wait,
	}
}

// Scaled returns a breakdown with the same component proportions as b whose
// components sum exactly to total (largest-remainder rounding, deterministic
// tie-break by component order). It is the generic reference for SetBound
// when no closed-form decomposition of a bound is known: the attribution
// then charges each constraint class in proportion to its achieved share.
// Scaling to b's own total returns b unchanged, so a schedule that meets its
// bound exactly always attributes a zero gap.
func (b Breakdown) Scaled(total logp.Time) Breakdown {
	t := b.Total()
	if t == total {
		return b
	}
	if t <= 0 || total <= 0 {
		return Breakdown{Latency: total}
	}
	comps := [6]logp.Time{b.Latency, b.Overhead, b.Gap, b.Compute, b.Origin, b.Wait}
	var out [6]logp.Time
	var sum logp.Time
	idx := [6]int{0, 1, 2, 3, 4, 5}
	rems := [6]logp.Time{}
	for i, c := range comps {
		// c*total overflows int64 once event times pass ~2^31 (huge-L
		// machines put both c and total there), so the product is carried
		// in 128 bits. c <= t keeps the quotient below total and the
		// remainder below t, so both always fit back into int64.
		hi, lo := bits.Mul64(uint64(c), uint64(total))
		q, r := bits.Div64(hi, lo, uint64(t))
		out[i] = logp.Time(q)
		sum += out[i]
		rems[i] = logp.Time(r)
	}
	sort.SliceStable(idx[:], func(x, y int) bool { return rems[idx[x]] > rems[idx[y]] })
	for k := logp.Time(0); k < total-sum; k++ {
		out[idx[int(k)%6]]++
	}
	return Breakdown{
		Latency: out[0], Overhead: out[1], Gap: out[2],
		Compute: out[3], Origin: out[4], Wait: out[5],
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("L=%d o=%d g=%d compute=%d origin=%d wait=%d (total %d)",
		b.Latency, b.Overhead, b.Gap, b.Compute, b.Origin, b.Wait, b.Total())
}

// Step is one node of the critical path.
type Step struct {
	Event schedule.Event
	Index int       // index into the analyzed schedule's Events slice
	Kind  EdgeKind  // the binding constraint on this event's start
	Slack logp.Time // start minus the binding bound (wait absorbed here)
}

// Report is the result of analyzing one executed schedule.
type Report struct {
	Finish   logp.Time // completion: last availability or compute end
	Path     []Step    // critical path, origin side first
	Achieved Breakdown // decomposition of Finish along Path (identity)

	// OpSlack[i] is how many cycles event i of the analyzed schedule could
	// start later without moving Finish (0 for tight critical events).
	OpSlack []logp.Time

	// Bound / Gap / Attribution are populated by SetBound.
	Bound       logp.Time // closed-form lower bound; -1 until SetBound
	Gap         logp.Time // Finish - Bound
	Attribution Breakdown // Achieved - reference; components sum to Gap
}

// SetBound records the closed-form lower bound and its reference breakdown
// and attributes the gap: Attribution = Achieved - ref componentwise, so the
// components always sum to Finish - bound. ref.Total() must equal bound;
// pass a zero Breakdown with bound 0 when no closed form is known (the gap
// then equals Finish and the attribution is the achieved breakdown itself).
func (r *Report) SetBound(bound logp.Time, ref Breakdown) error {
	if ref.Total() != bound {
		return fmt.Errorf("causal: reference breakdown totals %d, bound is %d", ref.Total(), bound)
	}
	r.Bound = bound
	r.Gap = r.Finish - bound
	r.Attribution = r.Achieved.Sub(ref)
	return nil
}

// CriticalSet returns the set of event indices on the critical path.
func (r *Report) CriticalSet() map[int]bool {
	set := make(map[int]bool, len(r.Path))
	for _, st := range r.Path {
		set[st.Index] = true
	}
	return set
}

// CriticalProcs returns the processors the critical path touches: each
// step's acting processor plus the peer of any send or reception on the
// path. Trace sampling uses it as the always-keep thread set, so a bounded
// trace still shows the full chain that set the finish time.
func (r *Report) CriticalProcs() map[int]bool {
	set := make(map[int]bool, len(r.Path)+1)
	for _, st := range r.Path {
		set[st.Event.Proc] = true
		if st.Event.Peer >= 0 {
			set[st.Event.Peer] = true
		}
	}
	return set
}

// Signature renders the critical path as one canonical line, usable for
// equality checks across backends (the conformance harness diffs it between
// the simulator's and the runtime's executed traces).
func (r *Report) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "finish=%d", r.Finish)
	for _, st := range r.Path {
		e := st.Event
		fmt.Fprintf(&b, " %s:P%d@%d/%s/i%d", st.Kind, e.Proc, e.Time, e.Op, e.Item)
	}
	return b.String()
}

// String renders the report as the -explain listing: the path, one event
// per line with its binding constraint and slack, then the breakdown and —
// when SetBound was called — the gap attribution.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d steps, finish %d):\n", len(r.Path), r.Finish)
	for _, st := range r.Path {
		e := st.Event
		var what string
		switch e.Op {
		case schedule.OpSend:
			what = fmt.Sprintf("send item %d -> P%d", e.Item, e.Peer)
		case schedule.OpRecv:
			what = fmt.Sprintf("recv item %d <- P%d", e.Item, e.Peer)
		case schedule.OpCompute:
			what = fmt.Sprintf("compute tag %d (%d cycles)", e.Item, e.Dur)
		}
		fmt.Fprintf(&b, "  t=%-5d P%-3d %-24s via %s", e.Time, e.Proc, what, st.Kind)
		if st.Slack != 0 {
			fmt.Fprintf(&b, " (+%d wait)", st.Slack)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "breakdown: %s\n", r.Achieved)
	if r.Bound >= 0 {
		fmt.Fprintf(&b, "bound %d, gap %d", r.Bound, r.Gap)
		if r.Gap != 0 {
			fmt.Fprintf(&b, "; attribution: %s", r.Attribution)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// kindNone marks an empty constraint slot.
const kindNone EdgeKind = -1

// constraint is one incoming edge of a node: its start must be >= bound.
type constraint struct {
	bound logp.Time
	from  int32 // predecessor node id; -1 for an origin
	kind  EdgeKind
}

// Constraint slots. A node has at most one edge of each class, so its
// constraints live inline: the busy or compute edge from the processor's
// previous event, the gap edge from the port's previous event, and the
// incoming edge — latency for a reception, avail or origin for a send.
const (
	slotBusy = iota
	slotGap
	slotIn
)

var noCons = [3]constraint{{from: -1, kind: kindNone}, {from: -1, kind: kindNone}, {from: -1, kind: kindNone}}

// node is one event of the analyzed schedule. Node ids are positions in
// analysis order — (time, proc, op, item, peer, input index) — and fit in
// an int32.
type node struct {
	ev    schedule.Event
	dur   logp.Time // o for send/recv, Dur for compute
	cons  [3]constraint
	input int32 // index into s.Events
}

func (n *node) end() logp.Time { return n.ev.Time + n.dur }

// portKey places a send or a reception in one of the two sorted lists that
// join messages: by (proc, item, recv, peer) for receptions and for the
// availability of an item at its sender, and by (peer, item, proc) for sends
// grouped by destination. Either way x, item, y read (receiver, item,
// sender) for a message, so the two lists merge one message identity at a
// time.
type portKey struct {
	x, item, y int
	id         int32
	recv       bool
}

func cmpPort(p, q portKey) int {
	if c := cmp.Compare(p.x, q.x); c != 0 {
		return c
	}
	if c := cmp.Compare(p.item, q.item); c != 0 {
		return c
	}
	if p.recv != q.recv {
		if q.recv {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(p.y, q.y); c != 0 {
		return c
	}
	return cmp.Compare(p.id, q.id)
}

// cmpMessage orders message identities (receiver, item, sender).
func cmpMessage(p, q portKey) int {
	if c := cmp.Compare(p.x, q.x); c != 0 {
		return c
	}
	if c := cmp.Compare(p.item, q.item); c != 0 {
		return c
	}
	return cmp.Compare(p.y, q.y)
}

// originAt is an item's injection, placed by (proc, item) like a run of
// a.ports.
type originAt struct {
	proc, item int
	time       logp.Time
}

func cmpOrigin(p, q originAt) int {
	if c := cmp.Compare(p.proc, q.proc); c != 0 {
		return c
	}
	return cmp.Compare(p.item, q.item)
}

// eventAt is an event with its input index: an element of the sort into
// analysis order.
type eventAt struct {
	ev schedule.Event
	id int32
}

// cmpAnalysis orders events by (time, proc, op, item, peer, input index).
func cmpAnalysis(p, q eventAt) int {
	if c := cmp.Compare(p.ev.Time, q.ev.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(p.ev.Proc, q.ev.Proc); c != 0 {
		return c
	}
	if c := cmp.Compare(p.ev.Op, q.ev.Op); c != 0 {
		return c
	}
	if c := cmp.Compare(p.ev.Item, q.ev.Item); c != 0 {
		return c
	}
	if c := cmp.Compare(p.ev.Peer, q.ev.Peer); c != 0 {
		return c
	}
	return cmp.Compare(p.id, q.id)
}

// startAt is a node's start, op and input index: an element of the sort
// into the backward pass's order.
type startAt struct {
	time  logp.Time
	op    schedule.Op
	input int32
	id    int32
}

// cmpBackward orders by descending start, then op (sends first), then input
// index.
func cmpBackward(p, q startAt) int {
	if c := cmp.Compare(q.time, p.time); c != 0 {
		return c
	}
	if c := cmp.Compare(p.op, q.op); c != 0 {
		return c
	}
	return cmp.Compare(p.input, q.input)
}

// analyzer holds the DAG under construction.
type analyzer struct {
	m     logp.Machine
	nodes []node    // one slab, in analysis order
	ports []portKey // every send and reception by (proc, item, recv, peer, id)
	sends []portKey // every send by (peer, item, proc, id)

	cursor int // a.sends before it belong to identities already matched

	// The latest item availability over all (processor, item) pairs, the
	// reception that realizes it (-1: an origin), and whether any pair
	// exists.
	pairNode int32
	pairTime logp.Time
	havePair bool
}

// Analyze builds the causal DAG of s (with the given item origins) and
// extracts the critical path, the achieved breakdown, and per-event slack.
// The input is treated as an executed trace: receive events are taken at
// face value (buffered receptions later than arrival are legal and show up
// as wait). Analysis is deterministic in the event multiset up to exact
// duplicates: events are ordered by (time, proc, op, item, peer) and then
// by input index, so the input order only decides which of two identical
// events takes which role. Two backends that executed the same events
// produce the same finish, critical path and breakdown. Report.Bound is -1
// until SetBound is called. Events whose Op is none of send, recv and
// compute occupy their processor for o cycles and have no other edge.
func Analyze(s *schedule.Schedule, origins map[int]schedule.Origin) *Report {
	a := &analyzer{m: s.M}
	a.build(s)
	a.link(origins)
	rep := &Report{Bound: -1}
	finNode, finTime := a.finish()
	rep.Finish = finTime
	rep.Path, rep.Achieved = a.walk(finNode, finTime)
	rep.OpSlack = a.slacks(finTime)
	return rep
}

// build lays the nodes out in analysis order, attaches the busy, compute and
// gap edges, and fills the two port lists.
func (a *analyzer) build(s *schedule.Schedule) {
	m, evs := a.m, s.Events
	order := make([]eventAt, len(evs))
	nSends, nRecvs := 0, 0
	lo, hi := 0, 0
	for i, ev := range evs {
		order[i] = eventAt{ev: ev, id: int32(i)}
		switch ev.Op {
		case schedule.OpSend:
			nSends++
		case schedule.OpRecv:
			nRecvs++
		}
		if i == 0 || ev.Proc < lo {
			lo = ev.Proc
		}
		if i == 0 || ev.Proc > hi {
			hi = ev.Proc
		}
	}
	slices.SortFunc(order, cmpAnalysis)
	a.nodes = make([]node, len(order))
	for id, k := range order {
		dur := m.O
		if k.ev.Op == schedule.OpCompute {
			dur = k.ev.Dur
		}
		a.nodes[id] = node{ev: k.ev, dur: dur, cons: noCons, input: k.id}
	}

	// Per-processor tables are dense, indexed by proc - lo. A schedule
	// whose processors spread far wider than its events indexes them by
	// rank among the distinct processors instead. The spread is compared
	// before adding one, which would wrap for processors spanning the
	// whole int range.
	var procs []int
	span := uint64(hi) - uint64(lo) + 1
	if uint64(hi)-uint64(lo) >= 2*uint64(len(evs))+64 {
		procs = make([]int, len(evs))
		for i := range evs {
			procs[i] = evs[i].Proc
		}
		slices.Sort(procs)
		procs = slices.Compact(procs)
		span = uint64(len(procs))
	}
	tab := make([]int32, 3*span)
	for i := range tab {
		tab[i] = -1
	}
	lastAt := tab[:span]
	lastOp := [2][]int32{tab[span : 2*span], tab[2*span:]} // by OpSend, OpRecv

	a.ports = make([]portKey, 0, nSends+nRecvs)
	a.sends = make([]portKey, 0, nSends)
	for i := range a.nodes {
		id := int32(i)
		n := &a.nodes[i]
		p := n.ev.Proc - lo
		if procs != nil {
			p, _ = slices.BinarySearch(procs, n.ev.Proc)
		}
		if prev := lastAt[p]; prev >= 0 {
			if pn := &a.nodes[prev]; pn.dur > 0 { // zero-duration events impose no busy constraint
				kind := KindBusy
				if pn.ev.Op == schedule.OpCompute {
					kind = KindCompute
				}
				n.cons[slotBusy] = constraint{from: prev, kind: kind, bound: pn.end()}
			}
		}
		lastAt[p] = id
		switch n.ev.Op {
		case schedule.OpSend, schedule.OpRecv:
			last := lastOp[n.ev.Op]
			if prev := last[p]; prev >= 0 {
				n.cons[slotGap] = constraint{from: prev, kind: KindGap, bound: a.nodes[prev].ev.Time + m.G}
			}
			last[p] = id
			a.ports = append(a.ports, portKey{x: n.ev.Proc, item: n.ev.Item, y: n.ev.Peer, id: id, recv: n.ev.Op == schedule.OpRecv})
			if n.ev.Op == schedule.OpSend {
				a.sends = append(a.sends, portKey{x: n.ev.Peer, item: n.ev.Item, y: n.ev.Proc, id: id})
			}
		}
	}
	slices.SortFunc(a.ports, cmpPort)
	slices.SortFunc(a.sends, cmpPort)
}

// run returns the end j of the (proc, item) run of a.ports that starts at
// i, where its receptions begin (sends sort first), and its earliest
// reception — the one first in analysis order, -1 when the run has none.
func (a *analyzer) run(i int) (j, r int, first int32) {
	ps := a.ports
	j, first = i, -1
	for j < len(ps) && ps[j].x == ps[i].x && ps[j].item == ps[i].item && !ps[j].recv {
		j++
	}
	r = j
	for j < len(ps) && ps[j].x == ps[i].x && ps[j].item == ps[i].item {
		if first < 0 || ps[j].id < first {
			first = ps[j].id
		}
		j++
	}
	return j, r, first
}

// link walks the (processor, item) pairs in ascending order — the runs of
// a.ports merged with the origins — and attaches the edges that join events
// across processors: availability (or origin) into each send, and latency
// from each reception's matching send. It also records the latest pair
// availability for finish.
func (a *analyzer) link(origins map[int]schedule.Origin) {
	ogs := make([]originAt, 0, len(origins))
	for item, og := range origins {
		ogs = append(ogs, originAt{proc: og.Proc, item: item, time: og.Time})
	}
	slices.SortFunc(ogs, cmpOrigin)
	a.pairNode = -1
	ps := a.ports
	for i, o := 0, 0; i < len(ps) || o < len(ogs); {
		// The next pair holds a run, an origin, or both.
		var c int
		switch {
		case i == len(ps):
			c = 1
		case o == len(ogs):
			c = -1
		default:
			c = cmpOrigin(originAt{proc: ps[i].x, item: ps[i].item}, ogs[o])
		}
		// The pair's earliest availability: the origin, unless a
		// reception comes strictly earlier.
		in := constraint{from: -1, kind: kindNone}
		if c >= 0 {
			in = constraint{from: -1, kind: KindOrigin, bound: ogs[o].time}
			o++
		}
		j, r, first := i, i, int32(-1)
		if c <= 0 {
			j, r, first = a.run(i)
		}
		if first >= 0 {
			if at := a.nodes[first].end(); in.kind == kindNone || at < in.bound {
				in = constraint{from: first, kind: KindAvail, bound: at}
			}
		}
		if in.kind != kindNone && (!a.havePair || in.bound > a.pairTime) {
			a.havePair, a.pairNode, a.pairTime = true, in.from, in.bound
		}
		// Availability edges: each send needs its item; the provider is
		// whatever made it available earliest at the sender — the item's
		// origin there, or the sender's first reception of it.
		if in.kind != kindNone {
			for _, e := range ps[i:r] {
				a.nodes[e.id].cons[slotIn] = in
			}
		}
		// Latency edges, one message identity at a time: the receptions
		// ps[r:j] are sorted by sender.
		for r < j {
			q := r + 1
			for q < j && ps[q].y == ps[r].y {
				q++
			}
			a.match(ps[r:q])
			r = q
		}
		i = j
	}
}

// match gives each reception of one message identity (in analysis order)
// its latency edge: an unused send of the same identity whose arrival is at
// or before the reception (buffered receptions may start late), preferring
// the latest such arrival; an exact-arrival strict trace matches
// one-to-one. A violating trace falls back to the earliest unused send.
// Sends whose arrival has passed wait on a stack kept in place at the front
// of their own run of a.sends, so the latest one is on top.
func (a *analyzer) match(recvs []portKey) {
	ss := a.sends
	for a.cursor < len(ss) && cmpMessage(ss[a.cursor], recvs[0]) < 0 {
		a.cursor++
	}
	lo := a.cursor
	for a.cursor < len(ss) && cmpMessage(ss[a.cursor], recvs[0]) == 0 {
		a.cursor++
	}
	sends := ss[lo:a.cursor]
	flight := a.m.O + a.m.L
	top, next := 0, 0
	for _, rv := range recvs {
		start := a.nodes[rv.id].ev.Time
		for next < len(sends) && a.nodes[sends[next].id].ev.Time+flight <= start {
			sends[top] = sends[next]
			top++
			next++
		}
		var best int32
		switch {
		case top > 0:
			top--
			best = sends[top].id
		case next < len(sends):
			best = sends[next].id
			next++
		default:
			continue
		}
		a.nodes[rv.id].cons[slotIn] = constraint{from: best, kind: KindLatency, bound: a.nodes[best].ev.Time + flight}
	}
}

// finish determines the run's completion time — the latest item availability
// across all (processor, item) pairs, or the end of the last compute if that
// is later — and the node that realizes it (-1 when an origin injection or
// an empty schedule realizes it). Among equally late pairs the smallest
// (processor, item) realizes it; among equally late computes the first.
func (a *analyzer) finish() (int32, logp.Time) {
	bestNode, bestT, have := a.pairNode, a.pairTime, a.havePair
	for id := range a.nodes {
		n := &a.nodes[id]
		if n.ev.Op == schedule.OpCompute && (n.end() > bestT || !have) {
			have, bestT, bestNode = true, n.end(), int32(id)
		}
	}
	return bestNode, bestT
}

// binding returns the constraint with the latest bound (ties broken by kind
// order; a node has at most one constraint of each kind) and reports whether
// any constraint exists.
func (a *analyzer) binding(id int32) (constraint, bool) {
	best := constraint{from: -1, kind: kindNone}
	for _, c := range a.nodes[id].cons {
		if c.kind != kindNone && (best.kind == kindNone || c.bound > best.bound || (c.bound == best.bound && c.kind > best.kind)) {
			best = c
		}
	}
	return best, best.kind != kindNone
}

// walk extracts the critical path ending at finNode and its breakdown. The
// decomposition telescopes exactly to finTime. Step indices are input
// indices.
func (a *analyzer) walk(finNode int32, finTime logp.Time) ([]Step, Breakdown) {
	var bd Breakdown
	if finNode < 0 {
		bd.Origin = finTime // an origin injection (or nothing) realizes the finish
		return nil, bd
	}
	fin := &a.nodes[finNode]
	switch fin.ev.Op {
	case schedule.OpCompute:
		bd.Compute += fin.dur
	default:
		bd.Overhead += fin.dur // the final reception's own overhead
	}
	// Count the steps first, so the path is allocated once. A chain longer
	// than the schedule revisits an event — only a trace that breaks its
	// constraints can bind in a cycle — and is cut there: the step that
	// closes the cycle becomes the root, taken as unconstrained.
	steps, cut := 1, false
	for id := finNode; ; steps++ {
		c, ok := a.binding(id)
		if !ok || c.from < 0 || c.kind == KindOrigin {
			break
		}
		if steps == len(a.nodes) {
			cut = true
			break
		}
		id = c.from
	}
	path := make([]Step, steps)
	id := finNode
	for i := steps - 1; i >= 0; i-- {
		n := &a.nodes[id]
		c, ok := a.binding(id)
		if !ok || (cut && i == 0) {
			path[i] = Step{Event: n.ev, Index: int(n.input), Kind: KindStart, Slack: n.ev.Time}
			bd.Wait += n.ev.Time
			break
		}
		path[i] = Step{Event: n.ev, Index: int(n.input), Kind: c.kind, Slack: n.ev.Time - c.bound}
		bd.Wait += n.ev.Time - c.bound
		switch c.kind {
		case KindLatency:
			bd.Latency += a.m.L
			bd.Overhead += a.m.O
		case KindGap:
			bd.Gap += a.m.G
		case KindBusy, KindAvail:
			bd.Overhead += a.nodes[c.from].dur
		case KindCompute:
			bd.Compute += a.nodes[c.from].dur
		case KindOrigin:
			bd.Origin += c.bound
		}
		id = c.from
	}
	return path, bd
}

// slacks runs the backward pass: for every node, the latest start that moves
// neither the finish time nor any successor past its own latest start. The
// returned slice is indexed by input event; negative slack marks a
// constraint the trace violated.
func (a *analyzer) slacks(finTime logp.Time) []logp.Time {
	// Reverse causal order: descending start; among equal starts sends
	// first, so an o=0 availability edge (recv -> send at the same instant)
	// sees its successor's final value; then input order.
	nodes := a.nodes
	order := make([]startAt, len(nodes))
	latest := make([]logp.Time, len(nodes))
	for id := range nodes {
		n := &nodes[id]
		latest[id] = finTime - n.dur
		order[id] = startAt{time: n.ev.Time, op: n.ev.Op, input: n.input, id: int32(id)}
	}
	slices.SortFunc(order, cmpBackward)
	for _, k := range order {
		for _, c := range nodes[k.id].cons {
			if c.kind == kindNone || c.from < 0 {
				continue
			}
			// The constraint is start(n) >= start(from) + delta, so from may
			// start no later than latest(n) - delta.
			delta := c.bound - nodes[c.from].ev.Time
			if lim := latest[k.id] - delta; lim < latest[c.from] {
				latest[c.from] = lim
			}
		}
	}
	out := make([]logp.Time, len(nodes))
	for id := range nodes {
		out[nodes[id].input] = latest[id] - nodes[id].ev.Time
	}
	return out
}
