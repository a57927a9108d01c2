package conform

import "testing"

// TestScaleCasesConform runs the backend-equivalence contract at the
// processor counts the million-processor engine work targets: broadcast and
// reduction at P = 64 and 1024 always, and P = 1e4 and 1e5 unless -short.
// This is where the simulator's large flight batches and the chunked worker
// pool (runtime) take over from the small-machine code paths, so lockstep here
// means the rework preserved the step semantics, not just the small cases.
func TestScaleCasesConform(t *testing.T) {
	ps := []int{64, 1024}
	if !testing.Short() {
		ps = append(ps, 10_000, 100_000)
	}
	ck := NewChecker()
	for _, c := range ScaleCases(ps...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if diffs := ck.Check(c); len(diffs) != 0 {
				t.Fatalf("%d divergences:\n%s", len(diffs), diffs[0])
			}
		})
	}
}
