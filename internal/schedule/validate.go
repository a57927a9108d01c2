package schedule

import (
	"fmt"
	"sort"

	"logpopt/internal/logp"
)

// A Violation describes one way a schedule breaks the LogP model's rules.
type Violation struct {
	Kind string
	Msg  string
}

func (v Violation) Error() string { return fmt.Sprintf("schedule: %s: %s", v.Kind, v.Msg) }

// Violation kinds produced by Validate.
const (
	VUnmatched  = "unmatched-message"   // send without matching recv or vice versa
	VLatency    = "latency"             // recv not exactly send + o + L
	VGap        = "gap"                 // two sends (or recvs) closer than g at one port
	VBusy       = "busy-overlap"        // overlapping busy intervals at one processor
	VCapacity   = "capacity"            // more than ceil(L/g) messages in transit to/from a proc
	VAvail      = "item-availability"   // item forwarded before it was available
	VComplete   = "incomplete"          // a processor missed an item it must receive
	VDuplicate  = "duplicate-reception" // a processor received the same item twice
	VNegTime    = "negative-time"       // event before time 0
	VBadProc    = "bad-processor"       // processor index out of range
	VSelfSend   = "self-send"           // message from a processor to itself
	VBadCompute = "bad-compute"         // compute event with non-positive duration
)

// Validate checks every structural LogP constraint on the schedule and
// returns all violations found (empty means the schedule is a legal LogP
// communication schedule). Receptions must begin exactly at arrival
// (send + o + L); for the deferred-reception discipline (NIC buffering, as
// in Section 3.5's modified model) use ValidateDeferred. Validate does not
// check item availability or broadcast completeness; see CheckAvailability
// and CheckBroadcastComplete.
func Validate(s *Schedule) []Violation {
	return validate(s, false)
}

// ValidateDeferred is Validate under the buffered-reception discipline:
// every reception must begin at or after its message's arrival, and each
// (sender, receiver, item) send is matched one-to-one with a later recv.
// This is the model of Section 3.5 (Theorem 3.8), in which arrivals wait in
// the receiver's input buffer until the processor receives them.
func ValidateDeferred(s *Schedule) []Violation {
	return validate(s, true)
}

func validate(s *Schedule, deferRecv bool) []Violation {
	var out []Violation
	add := func(kind, format string, args ...any) {
		out = append(out, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	m := s.M
	for _, e := range s.Events {
		if e.Time < 0 {
			add(VNegTime, "%s of item %d at proc %d at time %d", e.Op, e.Item, e.Proc, e.Time)
		}
		if e.Proc < 0 || e.Proc >= m.P {
			add(VBadProc, "%s event at proc %d (P=%d)", e.Op, e.Proc, m.P)
		}
		switch e.Op {
		case OpSend, OpRecv:
			if e.Peer < 0 || e.Peer >= m.P {
				add(VBadProc, "%s event at proc %d has peer %d (P=%d)", e.Op, e.Proc, e.Peer, m.P)
			}
			if e.Peer == e.Proc {
				add(VSelfSend, "proc %d %ss item %d to itself", e.Proc, e.Op, e.Item)
			}
		case OpCompute:
			if e.Dur <= 0 {
				add(VBadCompute, "proc %d compute at %d has duration %d", e.Proc, e.Time, e.Dur)
			}
		}
	}

	if deferRecv {
		out = append(out, matchMessagesDeferred(s)...)
	} else {
		out = append(out, matchMessages(s)...)
	}
	out = append(out, checkPorts(s)...)
	out = append(out, checkCapacity(s)...)
	return out
}

// msgKey identifies one directed message for send/recv matching.
type msgKey struct {
	from, to, item int
	arrive         logp.Time // send.Time + o + L == recv.Time
}

func matchMessages(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	sends := make(map[msgKey]int)
	recvs := make(map[msgKey]int)
	for _, e := range s.Events {
		switch e.Op {
		case OpSend:
			sends[msgKey{e.Proc, e.Peer, e.Item, e.Time + m.O + m.L}]++
		case OpRecv:
			recvs[msgKey{e.Peer, e.Proc, e.Item, e.Time}]++
		}
	}
	for k, n := range sends {
		if r := recvs[k]; r != n {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"%d send(s) of item %d from %d to %d arriving at %d, but %d recv(s)",
				n, k.item, k.from, k.to, k.arrive, r)})
		}
	}
	for k, n := range recvs {
		if sd := sends[k]; sd == 0 && n > 0 {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"%d recv(s) of item %d at %d from %d at time %d with no matching send at %d",
				n, k.item, k.to, k.from, k.arrive, k.arrive-m.O-m.L)})
		}
	}
	return out
}

// matchMessagesDeferred matches sends to recvs per (from, to, item) channel,
// requiring each recv to start at or after its message's arrival. Sends and
// recvs on a channel are matched in time order (FIFO per channel).
func matchMessagesDeferred(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	type chKey struct{ from, to, item int }
	sends := make(map[chKey][]logp.Time)
	recvs := make(map[chKey][]logp.Time)
	var keys []chKey
	for _, e := range s.Events {
		switch e.Op {
		case OpSend:
			k := chKey{e.Proc, e.Peer, e.Item}
			if len(sends[k]) == 0 && len(recvs[k]) == 0 {
				keys = append(keys, k)
			}
			sends[k] = append(sends[k], e.Time)
		case OpRecv:
			k := chKey{e.Peer, e.Proc, e.Item}
			if len(sends[k]) == 0 && len(recvs[k]) == 0 {
				keys = append(keys, k)
			}
			recvs[k] = append(recvs[k], e.Time)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.item < b.item
	})
	for _, k := range keys {
		ss := append([]logp.Time(nil), sends[k]...)
		rr := append([]logp.Time(nil), recvs[k]...)
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
		sort.Slice(rr, func(i, j int) bool { return rr[i] < rr[j] })
		if len(ss) != len(rr) {
			out = append(out, Violation{VUnmatched, fmt.Sprintf(
				"item %d from %d to %d: %d sends but %d recvs",
				k.item, k.from, k.to, len(ss), len(rr))})
			continue
		}
		for i := range ss {
			if rr[i] < ss[i]+m.O+m.L {
				out = append(out, Violation{VLatency, fmt.Sprintf(
					"item %d from %d to %d: recv at %d before arrival %d",
					k.item, k.from, k.to, rr[i], ss[i]+m.O+m.L)})
			}
		}
	}
	return out
}

// busyIval is a closed-open busy interval at a processor.
type busyIval struct {
	start, end logp.Time
	op         Op
	item       int
}

func checkPorts(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	type portEvents struct {
		sends, recvs []logp.Time
		busy         []busyIval
	}
	ports := make(map[int]*portEvents)
	pe := func(p int) *portEvents {
		if ports[p] == nil {
			ports[p] = &portEvents{}
		}
		return ports[p]
	}
	for _, e := range s.Events {
		if e.Proc < 0 || e.Proc >= m.P {
			continue
		}
		p := pe(e.Proc)
		switch e.Op {
		case OpSend:
			p.sends = append(p.sends, e.Time)
			if m.O > 0 {
				p.busy = append(p.busy, busyIval{e.Time, e.Time + m.O, OpSend, e.Item})
			}
		case OpRecv:
			p.recvs = append(p.recvs, e.Time)
			if m.O > 0 {
				p.busy = append(p.busy, busyIval{e.Time, e.Time + m.O, OpRecv, e.Item})
			}
		case OpCompute:
			p.busy = append(p.busy, busyIval{e.Time, e.Time + e.Dur, OpCompute, e.Item})
		}
	}
	procs := make([]int, 0, len(ports))
	for p := range ports {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, proc := range procs {
		p := ports[proc]
		for _, kind := range []struct {
			name  string
			times []logp.Time
		}{{"send", p.sends}, {"recv", p.recvs}} {
			ts := append([]logp.Time(nil), kind.times...)
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			for i := 1; i < len(ts); i++ {
				if ts[i]-ts[i-1] < m.G {
					out = append(out, Violation{VGap, fmt.Sprintf(
						"proc %d: %ss at %d and %d violate gap g=%d",
						proc, kind.name, ts[i-1], ts[i], m.G)})
				}
			}
		}
		ivs := p.busy
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				out = append(out, Violation{VBusy, fmt.Sprintf(
					"proc %d: %s(item %d) [%d,%d) overlaps %s(item %d) [%d,%d)",
					proc,
					ivs[i-1].op, ivs[i-1].item, ivs[i-1].start, ivs[i-1].end,
					ivs[i].op, ivs[i].item, ivs[i].start, ivs[i].end)})
			}
		}
	}
	return out
}

func checkCapacity(s *Schedule) []Violation {
	var out []Violation
	m := s.M
	cap := m.Capacity()
	// Messages in transit from p occupy (send.Time+o, send.Time+o+L]; count
	// the maximum overlap per source and per destination with a sweep.
	type edge struct {
		start, end logp.Time
	}
	from := make(map[int][]edge)
	to := make(map[int][]edge)
	for _, e := range s.Events {
		if e.Op != OpSend {
			continue
		}
		ed := edge{e.Time + m.O, e.Time + m.O + m.L}
		from[e.Proc] = append(from[e.Proc], ed)
		to[e.Peer] = append(to[e.Peer], ed)
	}
	check := func(dir string, edges map[int][]edge) {
		procs := make([]int, 0, len(edges))
		for p := range edges {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			type pt struct {
				t logp.Time
				d int
			}
			var pts []pt
			for _, ed := range edges[p] {
				pts = append(pts, pt{ed.start, +1}, pt{ed.end, -1})
			}
			sort.Slice(pts, func(i, j int) bool {
				if pts[i].t != pts[j].t {
					return pts[i].t < pts[j].t
				}
				return pts[i].d < pts[j].d // process ends before starts at same instant
			})
			cur, mx := 0, 0
			for _, q := range pts {
				cur += q.d
				if cur > mx {
					mx = cur
				}
			}
			if mx > cap {
				out = append(out, Violation{VCapacity, fmt.Sprintf(
					"proc %d: %d messages in transit %s it (capacity ceil(L/g)=%d)",
					p, mx, dir, cap)})
			}
		}
	}
	check("from", from)
	check("to", to)
	return out
}

// CheckAvailability verifies that no processor sends an item before the item
// is available to it. origins maps item -> (proc, time at which the item is
// available at that proc, e.g. its generation time). Any item a processor
// receives becomes available o cycles after the recv event. Each send of an
// item at time s from proc p requires availability at p no later than s.
func CheckAvailability(s *Schedule, origins map[int]Origin) []Violation {
	var out []Violation
	m := s.M
	type pk struct{ proc, item int }
	avail := make(map[pk]logp.Time)
	for item, og := range origins {
		avail[pk{og.Proc, item}] = og.Time
	}
	for _, e := range s.Events {
		if e.Op != OpRecv {
			continue
		}
		k := pk{e.Proc, e.Item}
		t := e.Time + m.O
		if cur, ok := avail[k]; !ok || t < cur {
			avail[k] = t
		}
	}
	for _, e := range s.Events {
		if e.Op != OpSend {
			continue
		}
		t, ok := avail[pk{e.Proc, e.Item}]
		if !ok {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but never has it", e.Proc, e.Item, e.Time)})
			continue
		}
		if e.Time < t {
			out = append(out, Violation{VAvail, fmt.Sprintf(
				"proc %d sends item %d at %d but it is available only at %d",
				e.Proc, e.Item, e.Time, t)})
		}
	}
	return out
}

// Origin records where and when an item enters the system.
type Origin struct {
	Proc int
	Time logp.Time
}

// DerivedOrigins injects every item at its earliest sender, at time zero.
// Value-carrying schedules (reduce, scan, summation) move computed values
// whose item ids have no external origin map; for replay purposes an item
// simply needs to exist wherever it is first transmitted from.
func DerivedOrigins(s *Schedule) map[int]Origin {
	og := make(map[int]Origin)
	first := make(map[int]logp.Time)
	for _, ev := range s.Events {
		if ev.Op != OpSend {
			continue
		}
		if t, ok := first[ev.Item]; !ok || ev.Time < t {
			first[ev.Item] = ev.Time
			og[ev.Item] = Origin{Proc: ev.Proc}
		}
	}
	return og
}

// CheckBroadcastComplete verifies that every processor other than an item's
// origin receives the item exactly once, for every item in origins.
func CheckBroadcastComplete(s *Schedule, origins map[int]Origin) []Violation {
	var out []Violation
	counts := make(map[int]map[int]int) // item -> proc -> recv count
	for _, e := range s.Events {
		if e.Op != OpRecv {
			continue
		}
		if counts[e.Item] == nil {
			counts[e.Item] = make(map[int]int)
		}
		counts[e.Item][e.Proc]++
	}
	items := make([]int, 0, len(origins))
	for item := range origins {
		items = append(items, item)
	}
	sort.Ints(items)
	for _, item := range items {
		og := origins[item]
		for p := 0; p < s.M.P; p++ {
			n := counts[item][p]
			switch {
			case p == og.Proc:
				if n != 0 {
					out = append(out, Violation{VDuplicate, fmt.Sprintf(
						"origin proc %d receives its own item %d", p, item)})
				}
			case n == 0:
				out = append(out, Violation{VComplete, fmt.Sprintf(
					"proc %d never receives item %d", p, item)})
			case n > 1:
				out = append(out, Violation{VDuplicate, fmt.Sprintf(
					"proc %d receives item %d %d times", p, item, n)})
			}
		}
	}
	return out
}

// ValidateBroadcast runs Validate, CheckAvailability and
// CheckBroadcastComplete and returns all violations.
func ValidateBroadcast(s *Schedule, origins map[int]Origin) []Violation {
	out := Validate(s)
	out = append(out, CheckAvailability(s, origins)...)
	out = append(out, CheckBroadcastComplete(s, origins)...)
	return out
}

// Kinds returns the distinct violation kinds present, sorted — a compact
// fingerprint of how a schedule is illegal, independent of message wording
// and multiplicity. Implementations that detect the same defect through
// different rules (e.g. a busy port reported as gap vs busy-overlap) still
// differ here, so cross-implementation comparisons should treat any
// non-empty kind set as "flagged" rather than diffing the sets themselves.
func Kinds(vs []Violation) []string {
	seen := make(map[string]bool, len(vs))
	var out []string
	for _, v := range vs {
		if !seen[v.Kind] {
			seen[v.Kind] = true
			out = append(out, v.Kind)
		}
	}
	sort.Strings(out)
	return out
}

// FirstError converts a violation list into a single error (nil when empty),
// for callers that only need pass/fail.
func FirstError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	if len(vs) == 1 {
		return vs[0]
	}
	return fmt.Errorf("%w (and %d more violations)", vs[0], len(vs)-1)
}
