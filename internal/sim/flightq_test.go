package sim

import (
	"math/rand"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
)

// refHeap is the binary min-heap of in-flight messages the engine's flight
// queue used to be, ordered field by field by arrival, destination, item
// and sender. It stays as the oracle for the FIFO that replaced it.
type refHeap []Msg

func refBefore(a, b Msg) bool {
	if a.Arrive != b.Arrive {
		return a.Arrive < b.Arrive
	}
	if a.To != b.To {
		return a.To < b.To
	}
	if a.Item != b.Item {
		return a.Item < b.Item
	}
	return a.From < b.From
}

func (h *refHeap) push(m Msg) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !refBefore(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *refHeap) pop() Msg {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && refBefore(s[l], s[min]) {
			min = l
		}
		if r < n && refBefore(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// TestFlightQueueMatchesSingleHeap is the flight queue's correctness
// property: on every push sequence the engine can produce — messages sent
// at a clock that never runs backwards, each arriving a fixed o+L later —
// the FIFO pops exactly the order a single binary heap over the full
// (arrival, destination, item, sender) key does. Pushes and pops of due
// messages interleave, with dense ranges to force ties, so the queue both
// grows and slides its storage.
func TestFlightQueueMatchesSingleHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range []logp.Time{1, 3, 8} {
		var q flightQueue
		var ref refHeap
		var now logp.Time
		const ops = 20000
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(8); {
			case r == 0:
				now += logp.Time(rng.Intn(3))
			case r < 4 && q.len() > 0 && q.nextArrival() <= now:
				got, want := q.pop(), ref.pop()
				if got != want {
					t.Fatalf("w=%d op %d: FIFO pop %+v, heap pop %+v", w, i, got, want)
				}
			default:
				m := Msg{From: rng.Intn(64), To: rng.Intn(64), Item: rng.Intn(4), SendAt: now, Arrive: now + w}
				q.push(m)
				ref.push(m)
			}
			if q.len() != len(ref) {
				t.Fatalf("w=%d op %d: FIFO len %d, heap len %d", w, i, q.len(), len(ref))
			}
			if q.len() > 0 && q.nextArrival() != ref[0].Arrive {
				t.Fatalf("w=%d op %d: FIFO next arrival %d, heap min %+v", w, i, q.nextArrival(), ref[0])
			}
		}
		for q.len() > 0 {
			got, want := q.pop(), ref.pop()
			if got != want {
				t.Fatalf("w=%d drain: FIFO pop %+v, heap pop %+v", w, got, want)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("w=%d: heap retained %d messages after the FIFO drained", w, len(ref))
		}
	}
}

// TestLargePReplayAllocationStability checks the engine's steady state at
// P=1e5: after one warm-up Reset+Replay of an optimal broadcast, further
// replays must not allocate proportionally to P or to the event count.
func TestLargePReplayAllocationStability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-processor schedule")
	}
	const p = 100_000
	m := logp.MustNew(p, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	warm := e.Replay(s, og)
	if len(warm.Violations) != 0 {
		t.Fatalf("broadcast replay not clean: %v", warm.Violations[0])
	}
	if warm.Finish == 0 {
		t.Fatal("replay did nothing")
	}
	allocs := testing.AllocsPerRun(3, func() {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if rep.Finish != warm.Finish {
			t.Fatalf("recycled finish %d, fresh finish %d", rep.Finish, warm.Finish)
		}
	})
	// The 2P-2 events of the replay must reuse the engine's storage; a
	// small constant of bookkeeping allocations is fine, O(P) is not.
	if allocs > 64 {
		t.Fatalf("warm Reset+Replay at P=%d allocates %.0f times per run; storage is not being recycled", p, allocs)
	}
}

// TestResetShrinksAfterHugeRun checks the retain-watermark decay: one huge
// case must not pin its capacity across a subsequent sweep of small cases.
func TestResetShrinksAfterHugeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k-processor schedule")
	}
	big := logp.MustNew(50_000, 6, 2, 4)
	bigSched := core.BroadcastSchedule(big, 0)
	small := logp.MustNew(8, 6, 2, 4)
	smallSched := core.BroadcastSchedule(small, 0)
	og := core.Origins(0)

	e := New(big, Strict)
	if rep := e.Replay(bigSched, og); rep.Finish == 0 {
		t.Fatal("big replay did nothing")
	}
	grown := cap(e.executed.Events)
	if grown < len(bigSched.Events) {
		t.Fatalf("executed capacity %d did not grow to the big case's %d events", grown, len(bigSched.Events))
	}

	// The watermark decays by a quarter per Reset; a dozen small cases is
	// far past the point where every big-run capacity is oversized.
	for i := 0; i < 16; i++ {
		e.Reset(small, Strict)
		if rep := e.Replay(smallSched, og); len(rep.Violations) != 0 {
			t.Fatalf("small replay %d not clean: %v", i, rep.Violations[0])
		}
	}
	e.Reset(small, Strict)
	if c := cap(e.executed.Events); c >= grown {
		t.Errorf("executed capacity still %d after the sweep (big run grew it to %d)", c, grown)
	}
	if c := cap(e.procs); c >= big.P {
		t.Errorf("proc slab capacity still %d after the sweep (big run had P=%d)", c, big.P)
	}
	if c := cap(e.avail.slab); c > 4096 {
		t.Errorf("availability slab capacity still %d after the sweep", c)
	}
	if c := cap(e.inflight.msgs); c > 4096 {
		t.Errorf("flight queue retains %d capacity after the sweep", c)
	}
	// And the shrunken engine still works.
	if rep := e.Replay(smallSched, og); len(rep.Violations) != 0 || rep.Finish == 0 {
		t.Fatalf("engine broken after shrink: %+v", rep)
	}
}
