package causal_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"logpopt/internal/combine"
	"logpopt/internal/conform"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// slackOf pairs an event with the backward slack the analyzer gave it.
type slackOf struct {
	ev    schedule.Event
	slack logp.Time
}

// slackMultiset returns the report's (event, slack) pairs in a canonical
// order, so two reports that differ only in which of two identical events
// got which slack compare equal.
func slackMultiset(s *schedule.Schedule, rep *causal.Report) []slackOf {
	out := make([]slackOf, len(s.Events))
	for i, ev := range s.Events {
		out[i] = slackOf{ev, rep.OpSlack[i]}
	}
	slices.SortFunc(out, func(p, q slackOf) int {
		if c := compareEvents(p.ev, q.ev); c != 0 {
			return c
		}
		return int(p.slack - q.slack)
	})
	return out
}

func compareEvents(p, q schedule.Event) int {
	for _, d := range [...]int64{
		int64(p.Time - q.Time), int64(p.Proc - q.Proc), int64(p.Op - q.Op),
		int64(p.Item - q.Item), int64(p.Peer - q.Peer), int64(p.Dur - q.Dur),
	} {
		if d != 0 {
			if d < 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// diffReports returns "" when got and want are the same report: equal
// finish, breakdown and bound, the same path (events, kinds, slack, index)
// and the same per-event slack.
func diffReports(got, want *causal.Report) string {
	if got.Finish != want.Finish || got.Achieved != want.Achieved || got.Bound != want.Bound {
		return fmt.Sprintf("finish/breakdown/bound %d %s %d, want %d %s %d",
			got.Finish, got.Achieved, got.Bound, want.Finish, want.Achieved, want.Bound)
	}
	if len(got.Path) != len(want.Path) {
		return fmt.Sprintf("path has %d steps, want %d", len(got.Path), len(want.Path))
	}
	for i := range got.Path {
		if got.Path[i] != want.Path[i] {
			return fmt.Sprintf("path step %d is %+v, want %+v", i, got.Path[i], want.Path[i])
		}
	}
	if len(got.OpSlack) != len(want.OpSlack) {
		return fmt.Sprintf("%d slacks, want %d", len(got.OpSlack), len(want.OpSlack))
	}
	for i := range got.OpSlack {
		if got.OpSlack[i] != want.OpSlack[i] {
			return fmt.Sprintf("event %d slack %d, want %d", i, got.OpSlack[i], want.OpSlack[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "reports differ"
	}
	return ""
}

// largeTreeCases builds the P=1e5 broadcast and scan schedules the way
// sched.Compile does (the logtime tree on the benchmark's machine), without
// linking the service into this package's tests.
func largeTreeCases() []conform.Case {
	m := logp.Machine{P: 100_000, L: 6, O: 2, G: 4}
	tr := logtime.Tree(m, m.P)
	bc, err := core.TreeSchedule(tr, 0, nil, 0)
	if err != nil {
		panic(err)
	}
	scan := combine.ScanScheduleWith(m, m.P, func(logp.Machine, int) *core.Tree { return tr })
	return []conform.Case{
		{Name: "compiled-broadcast/p100000", S: bc, Origins: schedule.DerivedOrigins(bc)},
		{Name: "compiled-scan/p100000", S: scan, Origins: schedule.DerivedOrigins(scan)},
	}
}

// perturb returns a copy of s with a few events shifted in time, dropped
// or duplicated, so that receptions come before their arrival, lack a send
// or share one. With spread set it also moves every processor number p to
// p<<40, far wider than the events, so the per-processor tables index by
// rank.
func perturb(rng *rand.Rand, s *schedule.Schedule, spread bool) *schedule.Schedule {
	out := &schedule.Schedule{M: s.M}
	for _, ev := range s.Events {
		switch rng.Intn(8) {
		case 0:
			ev.Time += logp.Time(rng.Intn(9) - 4)
		case 1:
			continue
		case 2:
			out.Append(ev)
		}
		if spread {
			ev.Proc <<= 40
			if ev.Peer >= 0 {
				ev.Peer <<= 40
			}
		}
		out.Append(ev)
	}
	return out
}

// TestAnalyzeMatchesOracle holds the slab analyzer to the original
// map-based one (oracle_test.go) on generated schedules — raw, and as the
// strict and buffered simulators executed them — on every paper case, on
// the scale cases and on compiled P=1e5 broadcast and scan.
func TestAnalyzeMatchesOracle(t *testing.T) {
	check := func(name string, s *schedule.Schedule, og map[int]schedule.Origin) {
		t.Helper()
		if d := diffReports(causal.Analyze(s, og), causal.OracleAnalyze(s, og)); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	rng := rand.New(rand.NewSource(1))
	cyclic := 0
	for seed := int64(0); seed < 3000; seed++ {
		c := conform.Generate(seed)
		check(c.Name, c.S, c.Origins)
		for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
			eng, _ := sim.Run(c.S, mode, c.Origins)
			check(fmt.Sprintf("%s/%v", c.Name, mode), eng.Executed(), c.Origins)
		}
		// Executed traces are clean; perturbed ones reach the matching's
		// fallbacks. Origins stay at the unspread processors, so a spread
		// trace's items have no origin at their senders. The oracle never
		// returns from a trace whose binding constraints form a cycle; the
		// analyzer must cut such a path at len(Events) steps, rooted at an
		// unconstrained start (see TestAnalyzeCyclicBinding).
		eng, _ := sim.Run(c.S, sim.Buffered, c.Origins)
		p := perturb(rng, eng.Executed(), seed%10 == 0)
		if !causal.OracleBindsInCycle(p, c.Origins) {
			check(c.Name+"/perturbed", p, c.Origins)
			continue
		}
		cyclic++
		rep := causal.Analyze(p, c.Origins)
		if len(rep.Path) != len(p.Events) || rep.Path[0].Kind != causal.KindStart || rep.Achieved.Total() != rep.Finish {
			t.Fatalf("%s/perturbed: cyclic binding not cut at %d steps: %d steps, %s", c.Name, len(p.Events), len(rep.Path), rep.Achieved)
		}
	}
	t.Logf("%d perturbed traces bind in a cycle and were checked against the cut rule only", cyclic)
	cases := append(conform.PaperCases(), conform.ScaleCases(64, 1024)...)
	if !testing.Short() {
		cases = append(cases, largeTreeCases()...)
	}
	for _, c := range cases {
		check(c.Name, c.S, c.Origins)
	}
	// Processors spread far wider than the events: the per-processor
	// tables index by rank instead of by offset.
	m := logp.MustNew(2, 4, 1, 2)
	sparse := &schedule.Schedule{M: m}
	sparse.Send(-1<<40, 0, 0, 1<<40)
	sparse.Send(-1<<40, 2, 1, 1<<40)
	sparse.Recv(1<<40, m.O+m.L, 0, -1<<40)
	sparse.Recv(1<<40, m.O+m.L+m.G, 1, -1<<40)
	sparse.Compute(1<<40, 20, 3, 9)
	check("sparse-procs", sparse, map[int]schedule.Origin{0: {Proc: -1 << 40}, 1: {Proc: -1 << 40}})
	// Processors at both ends of the int range, whose spread does not fit
	// in a uint64 once one is added.
	ends := &schedule.Schedule{M: m}
	ends.Send(math.MinInt64, 0, 0, math.MaxInt64)
	ends.Recv(math.MaxInt64, m.O+m.L, 0, math.MinInt64)
	ends.Send(math.MaxInt64, m.O+m.L+m.O, 0, 0)
	check("int-range-procs", ends, map[int]schedule.Origin{0: {Proc: math.MinInt64}})
	// Times spread over most of the int64 range.
	wide := &schedule.Schedule{M: m}
	wide.Send(0, -1<<62, 0, 1)
	wide.Send(0, -1<<62, 0, 1)
	wide.Recv(1, 1<<62, 0, 0)
	wide.Send(1, 1<<62+m.O, 0, 2)
	wide.Compute(0, 7, 2, 5)
	check("wide-times", wide, map[int]schedule.Origin{0: {Proc: 0, Time: -1 << 62}})
}

// TestAnalyzeCyclicBinding: in a trace that breaks its constraints the
// binding constraints can form a cycle. Here P1 sends the item before it
// receives it (avail edge from the later reception) and the reception's
// latency bound lies before the send's end (busy edge back to the send).
// The walk must stop, with the breakdown still summing to the finish.
func TestAnalyzeCyclicBinding(t *testing.T) {
	m := logp.MustNew(2, 1, 1, 1)
	s := &schedule.Schedule{M: m}
	s.Send(1, 0, 0, 0)
	s.Send(0, -10, 0, 1)
	s.Recv(1, 5, 0, 0)
	rep := causal.Analyze(s, map[int]schedule.Origin{0: {Proc: 0, Time: -10}})
	if rep.Finish != 5+m.O {
		t.Fatalf("finish %d, want %d", rep.Finish, 5+m.O)
	}
	if got := rep.Achieved.Total(); got != rep.Finish {
		t.Fatalf("breakdown totals %d, finish %d (%s)", got, rep.Finish, rep.Achieved)
	}
	if len(rep.Path) != len(s.Events) || rep.Path[0].Kind != causal.KindStart {
		t.Fatalf("cyclic path not cut at %d steps: %s", len(s.Events), rep.Signature())
	}
}

// TestAnalyzePermutationInvariant pins the duplicate-event rule. Events
// order by (time, proc, op, item, peer) and then by input index, so
// shuffling the input changes at most which of two identical events takes
// which role: the finish, the signature, the breakdown and the path events
// stay put, and every path index still names the same event. On a trace
// that breaks no constraint the multiset of (event, slack) stays put too.
// (On a violating trace the backward pass visits events that start
// together in input order, so their negative slacks may follow it, as they
// always have.)
func TestAnalyzePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, s *schedule.Schedule, og map[int]schedule.Origin, clean bool) {
		t.Helper()
		want := causal.Analyze(s, og)
		perm := rng.Perm(len(s.Events))
		shuf := &schedule.Schedule{M: s.M, Events: make([]schedule.Event, len(perm))}
		for to, from := range perm {
			shuf.Events[to] = s.Events[from]
		}
		got := causal.Analyze(shuf, og)
		if got.Finish != want.Finish || got.Signature() != want.Signature() || got.Achieved != want.Achieved {
			t.Fatalf("%s: shuffled input gives %s / %s, want %s / %s",
				name, got.Signature(), got.Achieved, want.Signature(), want.Achieved)
		}
		for i, st := range got.Path {
			if st.Event != want.Path[i].Event || s.Events[perm[st.Index]] != st.Event {
				t.Fatalf("%s: path step %d names event %+v, want %+v", name, i, s.Events[perm[st.Index]], want.Path[i].Event)
			}
		}
		if clean && !slices.Equal(slackMultiset(shuf, got), slackMultiset(s, want)) {
			t.Fatalf("%s: shuffled input changes the slack multiset", name)
		}
	}
	for _, c := range conform.PaperCases() {
		check(c.Name, c.S, c.Origins, true)
	}
	for seed := int64(0); seed < 1000; seed++ {
		c := conform.Generate(seed)
		_, rep := sim.Run(c.S, sim.Strict, c.Origins)
		check(c.Name, c.S, c.Origins, len(rep.Violations) == 0)
		eng, rep := sim.Run(c.S, sim.Buffered, c.Origins)
		check(c.Name+"/buffered", eng.Executed(), c.Origins, len(rep.Violations) == 0)
	}
}

// TestAnalyzeAllocs is the deterministic counter behind the slab layout:
// Analyze allocates the same number of times for a broadcast at P=1e3 and
// at P=1e4, so nothing is allocated per event.
func TestAnalyzeAllocs(t *testing.T) {
	// A process's first GC cycle starts the runtime's background mark
	// workers, and their allocations would land in whichever measurement
	// it falls into.
	runtime.GC()
	allocs := func(p int) float64 {
		m := logp.MustNew(p, 6, 2, 4)
		s := core.BroadcastSchedule(m, 0)
		og := core.Origins(0)
		return testing.AllocsPerRun(5, func() { causal.Analyze(s, og) })
	}
	small, large := allocs(1_000), allocs(10_000)
	if small != large {
		t.Fatalf("Analyze allocates %v times at P=1e3 and %v at P=1e4; want a count independent of P", small, large)
	}
	t.Logf("Analyze: %v allocations per call at any P", small)
}
