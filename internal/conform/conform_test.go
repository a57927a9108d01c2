package conform

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"logpopt/internal/schedule"
)

func TestPaperCasesConform(t *testing.T) {
	ck := NewChecker()
	cases := PaperCases()
	if len(cases) < 12 {
		t.Fatalf("only %d paper cases built; adapters lost coverage", len(cases))
	}
	for _, c := range cases {
		if diffs := ck.Check(c); len(diffs) != 0 {
			t.Errorf("%s: %d divergences, first: %s", c.Name, len(diffs), diffs[0])
		}
	}
}

func TestRandomCasesConform(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	ck := NewChecker()
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := Generate(seed)
		diffs := ck.Check(c)
		if len(diffs) == 0 {
			continue
		}
		min := Shrink(c, ck.Diverges)
		t.Fatalf("seed %d (%s): %s\nshrunk to %d events on %v: %+v",
			seed, c.Name, diffs[0], len(min.S.Events), min.S.M, min.S.Events)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 17, 4242} {
		a, b := Generate(seed), Generate(seed)
		if a.Name != b.Name || !reflect.DeepEqual(a.S, b.S) || !reflect.DeepEqual(a.Origins, b.Origins) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

func TestGenerateMix(t *testing.T) {
	// The seed stream must produce all three flavors: clean cases, dirty
	// cases, and cases with queueing (burst). Otherwise whole halves of the
	// contract go unexercised.
	ck := NewChecker()
	var clean, dirty, queued int
	for seed := int64(0); seed < 120; seed++ {
		c := Generate(seed)
		r := ck.simStrict.Replay(c)
		if r.Clean() {
			clean++
		} else {
			dirty++
		}
		if b := ck.simBuf.Replay(c); b.MaxBuffer > 1 {
			queued++
		}
	}
	if clean < 10 || dirty < 10 || queued < 3 {
		t.Fatalf("flavor mix degenerate: clean=%d dirty=%d queued=%d", clean, dirty, queued)
	}
}

func TestShrink(t *testing.T) {
	// Synthetic predicate: "diverges" iff the schedule still contains a send
	// of item 7 and a send of item 9. The shrinker must strip everything
	// else and drop unused origins and processors.
	c := Generate(3)
	s := c.S
	s.Send(0, 50, 7, 1)
	s.Send(1, 60, 9, 0)
	c.Origins[7] = schedule.Origin{Proc: 0}
	c.Origins[9] = schedule.Origin{Proc: 1}
	pred := func(c Case) bool {
		var has7, has9 bool
		for _, ev := range c.S.Events {
			if ev.Op == schedule.OpSend && ev.Item == 7 {
				has7 = true
			}
			if ev.Op == schedule.OpSend && ev.Item == 9 {
				has9 = true
			}
		}
		return has7 && has9
	}
	min := Shrink(c, pred)
	if len(min.S.Events) != 2 {
		t.Fatalf("shrunk to %d events, want 2: %+v", len(min.S.Events), min.S.Events)
	}
	if !pred(min) {
		t.Fatal("shrunk case no longer satisfies the predicate")
	}
	if len(min.Origins) != 2 {
		t.Fatalf("shrunk origins %v, want just items 7 and 9", min.Origins)
	}
	if min.S.M.P != 2 {
		t.Fatalf("shrunk machine has P=%d, want 2", min.S.M.P)
	}
}

func TestShrinkNonDiverging(t *testing.T) {
	c := Generate(5)
	got := Shrink(c, func(Case) bool { return false })
	if !reflect.DeepEqual(got, c) {
		t.Fatal("shrinking a non-diverging case must return it unchanged")
	}
}

func TestFinishOfMatchesSim(t *testing.T) {
	ck := NewChecker()
	for _, c := range PaperCases() {
		r := ck.simStrict.Replay(c)
		if f := finishOf(r.Trace, c.Origins); f != r.Finish {
			t.Errorf("%s: sim Finish=%d, finishOf=%d", c.Name, r.Finish, f)
		}
	}
}

// TestCausalDiffNeedsTraceDiff pins the implication Check relies on to skip
// the causal analysis: two traces that traceDiff finds equal — the same
// event multiset in any order — have the same critical-path signature. Each
// backend's executed trace is compared against a shuffled copy of itself.
func TestCausalDiffNeedsTraceDiff(t *testing.T) {
	ck := NewChecker()
	rng := rand.New(rand.NewSource(1))
	cases := PaperCases()
	for seed := int64(0); seed < 120; seed++ {
		cases = append(cases, Generate(seed))
	}
	for _, c := range cases {
		for _, b := range []Backend{ck.simStrict, ck.simBuf, ck.rtStrict, ck.rtBuf} {
			tr := b.Replay(c).Trace
			shuffled := &schedule.Schedule{M: tr.M, Events: slices.Clone(tr.Events)}
			rng.Shuffle(len(shuffled.Events), func(i, j int) {
				shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
			})
			if d := traceDiff(sortedEvents(tr), sortedEvents(shuffled)); d != "" {
				t.Fatalf("%s on %s: a shuffled trace differs from itself: %s", c.Name, b.Name(), d)
			}
			if d := causalDiff(tr, shuffled, c.Origins); d != "" {
				t.Errorf("%s on %s: equal traces, different critical paths: %s", c.Name, b.Name(), d)
			}
		}
	}
}
