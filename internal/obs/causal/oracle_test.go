package causal

import (
	"sort"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// This file keeps the analyzer's original map-and-closure implementation as
// a test oracle: the production analyzer in causal.go must produce the same
// reports (TestAnalyzeMatchesOracle). It is the original code with its type
// and function identifiers prefixed "oracle" and one change: the forward
// sort is stable, so identical events keep their input order, as they do in
// causal.go. With the original unstable sort, which copy of an identical
// event came first was arbitrary, and on a violating trace that choice
// reaches the slack of other events too (generated seed 111). Do not
// optimise this file.

// OracleAnalyze exposes the oracle to the external test package.
var OracleAnalyze = oracleAnalyze

// OracleBindsInCycle reports whether the oracle's walk back from the finish
// revisits an event: its binding constraints form a cycle, which only a
// trace that breaks its constraints can have, and oracleAnalyze would never
// return.
func OracleBindsInCycle(s *schedule.Schedule, origins map[int]schedule.Origin) bool {
	a := &oracleAnalyzer{m: s.M}
	a.build(s, origins)
	id, _ := a.finish(origins)
	seen := make([]bool, len(a.nodes))
	for id >= 0 && !seen[id] {
		seen[id] = true
		c, ok := a.binding(id)
		if !ok || c.from < 0 || c.kind == KindOrigin {
			return false
		}
		id = c.from
	}
	return id >= 0
}

// oracleConstraint is one incoming edge of a node: its start must be >= bound.
type oracleConstraint struct {
	from  int // predecessor node index; -1 for origin/start
	kind  EdgeKind
	bound logp.Time
}

// oracleNode is one event of the analyzed schedule.
type oracleNode struct {
	ev    schedule.Event
	input int // index into s.Events
	start logp.Time
	dur   logp.Time // o for send/recv, Dur for compute
	cons  []oracleConstraint
}

func (n *oracleNode) end() logp.Time { return n.start + n.dur }

// oracleAnalyzer holds the DAG under construction.
type oracleAnalyzer struct {
	m     logp.Machine
	nodes []oracleNode
	order []int // node ids in deterministic (time, proc, op, item, peer) order
}

// oracleAnalyze builds the causal DAG of s (with the given item origins) and
// extracts the critical path, the achieved breakdown, and per-event slack.
// The input is treated as an executed trace: receive events are taken at
// face value (buffered receptions later than arrival are legal and show up
// as wait). Analysis is deterministic in the event multiset — the event
// order of s is irrelevant — so two backends that executed the same events
// produce identical reports. Report.Bound is -1 until SetBound is called.
func oracleAnalyze(s *schedule.Schedule, origins map[int]schedule.Origin) *Report {
	a := &oracleAnalyzer{m: s.M}
	a.build(s, origins)
	rep := &Report{Bound: -1}
	finNode, finTime := a.finish(origins)
	rep.Finish = finTime
	rep.Path, rep.Achieved = a.walk(finNode, finTime)
	rep.OpSlack = a.slacks(finTime)

	// Map per-node slack back to input event order.
	slackIn := make([]logp.Time, len(s.Events))
	for i := range a.nodes {
		slackIn[a.nodes[i].input] = rep.OpSlack[i]
	}
	rep.OpSlack = slackIn
	for i := range rep.Path {
		rep.Path[i].Index = a.nodes[rep.Path[i].Index].input
	}
	return rep
}

// build creates the nodes in deterministic order and attaches every
// constraint edge.
func (a *oracleAnalyzer) build(s *schedule.Schedule, origins map[int]schedule.Origin) {
	m := a.m
	a.nodes = make([]oracleNode, 0, len(s.Events))
	for i, ev := range s.Events {
		dur := m.O
		if ev.Op == schedule.OpCompute {
			dur = ev.Dur
		}
		a.nodes = append(a.nodes, oracleNode{ev: ev, input: i, start: ev.Time, dur: dur})
	}
	order := make([]int, len(a.nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		p, q := &a.nodes[order[x]], &a.nodes[order[y]]
		if p.ev.Time != q.ev.Time {
			return p.ev.Time < q.ev.Time
		}
		if p.ev.Proc != q.ev.Proc {
			return p.ev.Proc < q.ev.Proc
		}
		if p.ev.Op != q.ev.Op {
			return p.ev.Op < q.ev.Op
		}
		if p.ev.Item != q.ev.Item {
			return p.ev.Item < q.ev.Item
		}
		return p.ev.Peer < q.ev.Peer
	})
	a.order = order

	// Per-processor serialization (busy) and same-op spacing (gap) edges.
	lastAt := make(map[int]int)            // proc -> last node in order
	lastOp := make(map[[2]int]int)         // (proc, op) -> last node
	type mkey struct{ from, to, item int } // message identity
	sendsBy := make(map[mkey][]int)        // sends per identity, time order
	recvsAt := make(map[[2]int][]int)      // (proc, item) -> recvs, time order
	for _, id := range order {
		n := &a.nodes[id]
		p := n.ev.Proc
		if prev, ok := lastAt[p]; ok {
			pn := &a.nodes[prev]
			if pn.dur > 0 { // zero-duration events impose no busy constraint
				kind := KindBusy
				if pn.ev.Op == schedule.OpCompute {
					kind = KindCompute
				}
				n.cons = append(n.cons, oracleConstraint{from: prev, kind: kind, bound: pn.end()})
			}
		}
		lastAt[p] = id
		if n.ev.Op != schedule.OpCompute {
			k := [2]int{p, int(n.ev.Op)}
			if prev, ok := lastOp[k]; ok {
				n.cons = append(n.cons, oracleConstraint{
					from: prev, kind: KindGap, bound: a.nodes[prev].start + m.G,
				})
			}
			lastOp[k] = id
		}
		switch n.ev.Op {
		case schedule.OpSend:
			sendsBy[mkey{p, n.ev.Peer, n.ev.Item}] = append(sendsBy[mkey{p, n.ev.Peer, n.ev.Item}], id)
		case schedule.OpRecv:
			recvsAt[[2]int{p, n.ev.Item}] = append(recvsAt[[2]int{p, n.ev.Item}], id)
		}
	}

	// Latency edges: match each recv to an unused send of the same message
	// identity whose arrival is at or before the reception (buffered
	// receptions may start late), preferring the latest such arrival; an
	// exact-arrival strict trace matches one-to-one.
	used := make(map[int]bool)
	for _, id := range order {
		n := &a.nodes[id]
		if n.ev.Op != schedule.OpRecv {
			continue
		}
		cands := sendsBy[mkey{n.ev.Peer, n.ev.Proc, n.ev.Item}]
		best := -1
		for _, sid := range cands {
			if used[sid] {
				continue
			}
			if arr := a.nodes[sid].start + m.O + m.L; arr <= n.start {
				best = sid // candidates are in time order; keep the latest
			}
		}
		if best < 0 { // violating trace: fall back to the earliest unused send
			for _, sid := range cands {
				if !used[sid] {
					best = sid
					break
				}
			}
		}
		if best >= 0 {
			used[best] = true
			n.cons = append(n.cons, oracleConstraint{
				from: best, kind: KindLatency, bound: a.nodes[best].start + m.O + m.L,
			})
		}
	}

	// Availability edges: each send needs its item; the provider is whatever
	// made it available earliest at the sender — the item's origin there, or
	// the sender's first reception of it.
	for _, id := range order {
		n := &a.nodes[id]
		if n.ev.Op != schedule.OpSend {
			continue
		}
		provider, kind, at := -1, EdgeKind(-1), logp.Time(0)
		if og, ok := origins[n.ev.Item]; ok && og.Proc == n.ev.Proc {
			provider, kind, at = -1, KindOrigin, og.Time
		}
		if rs := recvsAt[[2]int{n.ev.Proc, n.ev.Item}]; len(rs) > 0 {
			first := rs[0] // earliest reception = earliest availability
			if avail := a.nodes[first].end(); kind < 0 || avail < at {
				provider, kind, at = first, KindAvail, avail
			}
		}
		if kind >= 0 {
			a.nodes[id].cons = append(a.nodes[id].cons, oracleConstraint{from: provider, kind: kind, bound: at})
		}
	}
}

// finish determines the run's completion time — the latest item availability
// across all (processor, item) pairs, or the end of the last compute if that
// is later — and the node that realizes it (-1 when an origin injection or
// an empty schedule realizes it).
func (a *oracleAnalyzer) finish(origins map[int]schedule.Origin) (int, logp.Time) {
	type pi struct{ proc, item int }
	avail := make(map[pi]logp.Time)
	by := make(map[pi]int) // realizing recv node, -1 for origin
	for item, og := range origins {
		k := pi{og.Proc, item}
		if t, ok := avail[k]; !ok || og.Time < t {
			avail[k] = og.Time
			by[k] = -1
		}
	}
	for _, id := range a.order {
		n := &a.nodes[id]
		if n.ev.Op != schedule.OpRecv {
			continue
		}
		k := pi{n.ev.Proc, n.ev.Item}
		at := n.end()
		if t, ok := avail[k]; !ok || at < t {
			avail[k] = at
			by[k] = id
		}
	}
	bestNode, bestT, havePI := -1, logp.Time(0), false
	var bestK pi
	for k, t := range avail {
		if !havePI || t > bestT || (t == bestT && (k.proc < bestK.proc || (k.proc == bestK.proc && k.item < bestK.item))) {
			havePI, bestT, bestK, bestNode = true, t, k, by[k]
		}
	}
	for _, id := range a.order {
		n := &a.nodes[id]
		if n.ev.Op == schedule.OpCompute && (n.end() > bestT || !havePI) {
			havePI, bestT, bestNode = true, n.end(), id
		}
	}
	if !havePI {
		return -1, 0
	}
	return bestNode, bestT
}

// binding returns the constraint with the latest bound (ties broken by kind
// order, then predecessor index) and reports whether any constraint exists.
func (a *oracleAnalyzer) binding(id int) (oracleConstraint, bool) {
	n := &a.nodes[id]
	if len(n.cons) == 0 {
		return oracleConstraint{}, false
	}
	best := n.cons[0]
	for _, c := range n.cons[1:] {
		if c.bound > best.bound ||
			(c.bound == best.bound && (c.kind > best.kind ||
				(c.kind == best.kind && c.from < best.from))) {
			best = c
		}
	}
	return best, true
}

// walk extracts the critical path ending at finNode and its breakdown. The
// decomposition telescopes exactly to finTime.
func (a *oracleAnalyzer) walk(finNode int, finTime logp.Time) ([]Step, Breakdown) {
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
	var rev []Step
	id := finNode
	for {
		n := &a.nodes[id]
		c, ok := a.binding(id)
		if !ok {
			rev = append(rev, Step{Event: n.ev, Index: id, Kind: KindStart, Slack: n.start})
			bd.Wait += n.start
			break
		}
		rev = append(rev, Step{Event: n.ev, Index: id, Kind: c.kind, Slack: n.start - c.bound})
		bd.Wait += n.start - c.bound
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
		if c.from < 0 || c.kind == KindOrigin {
			break
		}
		id = c.from
	}
	path := make([]Step, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, bd
}

// slacks runs the backward pass: for every node, the latest start that moves
// neither the finish time nor any successor past its own latest start. The
// returned slice is indexed by node id; negative slack marks a constraint
// the trace violated.
func (a *oracleAnalyzer) slacks(finTime logp.Time) []logp.Time {
	latest := make([]logp.Time, len(a.nodes))
	for id := range a.nodes {
		latest[id] = finTime - a.nodes[id].dur
	}
	// Process in reverse causal order: descending start; among equal starts
	// sends first, so an o=0 availability edge (recv -> send at the same
	// instant) sees its successor's final value.
	order := make([]int, len(a.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		p, q := &a.nodes[order[x]], &a.nodes[order[y]]
		if p.start != q.start {
			return p.start > q.start
		}
		if p.ev.Op != q.ev.Op {
			return p.ev.Op < q.ev.Op
		}
		return order[x] < order[y]
	})
	for _, id := range order {
		n := &a.nodes[id]
		for _, c := range n.cons {
			if c.from < 0 {
				continue
			}
			// The constraint is start(n) >= start(from) + delta, so from may
			// start no later than latest(n) - delta.
			delta := c.bound - a.nodes[c.from].start
			if lim := latest[id] - delta; lim < latest[c.from] {
				latest[c.from] = lim
			}
		}
	}
	out := make([]logp.Time, len(a.nodes))
	for id := range a.nodes {
		out[id] = latest[id] - a.nodes[id].start
	}
	return out
}
