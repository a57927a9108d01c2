package sched

import (
	"testing"

	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/sim"
)

// TestCompileContinuousL2 pins Theorem 3.5 through the shared compile
// layer: at L = 2 with P-1 = P(t) no block-cyclic assignment meets
// L+B(P-1) (Theorem 3.4), so Compile falls back to the pruned-tree
// construction. Every item must then arrive within exactly L+B(P-1)+1, and a
// strict replay of the schedule must find no violation.
func TestCompileContinuousL2(t *testing.T) {
	const k = 8
	for _, p := range []int{14, 35, 90} {
		m := logp.Postal(p, 2)
		c, err := Compile(m, "continuous", k, 0, core.OptimalTree)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		delay := 2 + core.SeqFor(2).InvF(int64(p-1)) + 1
		worst, err := continuous.VerifyDelay(c.S, k, delay)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if worst != delay || c.Bound != logp.Time(delay+k-1) {
			t.Fatalf("P=%d: worst delay %d, bound %d; want delay %d, bound %d", p, worst, c.Bound, delay, delay+k-1)
		}
		if c.Tree == nil || c.Blocks == nil {
			t.Fatalf("P=%d: compiled continuous has no tree or blocks", p)
		}
		if rep := sim.New(m, sim.Strict).Replay(c.S, continuous.Origins(k)); len(rep.Violations) != 0 {
			t.Fatalf("P=%d: strict replay: %v", p, rep.Violations[0])
		}
	}
	// Away from P-1 = P(t) there is no fallback: the failure stands.
	if _, err := Compile(logp.Postal(13, 2), "continuous", k, 0, core.OptimalTree); err == nil {
		t.Fatal("P=13 L=2: want the block-cyclic failure, got a schedule")
	}
}
