package continuous

import (
	"errors"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/schedule"
)

func solveAndVerify(t *testing.T, l, tt, k int) *Instance {
	t.Helper()
	inst, s, err := SolveAndSchedule(l, tt, k)
	if err != nil {
		t.Fatalf("L=%d t=%d: %v", l, tt, err)
	}
	if vs := schedule.ValidateBroadcast(s, Origins(k)); len(vs) != 0 {
		t.Fatalf("L=%d t=%d: %v", l, tt, vs[0])
	}
	worst, err := VerifyDelay(s, k, inst.Delay())
	if err != nil {
		t.Fatalf("L=%d t=%d: %v", l, tt, err)
	}
	if worst != inst.Delay() {
		t.Fatalf("L=%d t=%d: worst delay %d, want exactly %d", l, tt, worst, inst.Delay())
	}
	return inst
}

func TestRunningExampleL3T7(t *testing.T) {
	// Section 3.2's running example: L=3, P-1 = P(7) = 9, delay 10.
	inst := solveAndVerify(t, 3, 7, 20)
	if inst.P != 9 {
		t.Fatalf("P-1 = %d, want 9", inst.P)
	}
	if inst.Delay() != 10 {
		t.Fatalf("delay %d, want 10", inst.Delay())
	}
	// Block structure: H5 (root, delay 0), E2 (delay 3), D1 (delay 4).
	sizes := map[int]int{}
	for _, b := range inst.Blocks {
		sizes[b.Size]++
	}
	if sizes[5] != 1 || sizes[2] != 1 || sizes[1] != 1 || len(inst.Blocks) != 3 {
		t.Fatalf("block sizes %v, want one each of 5, 2, 1", sizes)
	}
}

func TestTheorem33SmallL(t *testing.T) {
	// Theorem 3.3: for 3 <= L <= 10 and t large enough, delay L + B(P-1) is
	// achievable. Verified constructively on full sweeps for L=3..6 (the
	// only failures are the genuinely infeasible t = 2L for even L).
	for l := 3; l <= 6; l++ {
		for tt := l; tt <= 3*l+6; tt++ {
			if (l == 4 || l == 6) && tt == 2*l {
				continue // proven infeasible below
			}
			solveAndVerify(t, l, tt, l+2)
		}
	}
}

func TestTheorem33LargerL(t *testing.T) {
	// Spot checks for L=7..10 (full sweeps are slow; the bench harness
	// covers wider ranges).
	for _, c := range []struct{ l, t int }{
		{7, 14}, {7, 18}, {8, 17}, {8, 22}, {9, 19}, {10, 22},
	} {
		solveAndVerify(t, c.l, c.t, c.l+1)
	}
}

func TestInfeasibleInstances(t *testing.T) {
	// The paper remarks (after Corollary 3.1) that block-cyclic schedules
	// cannot always achieve minimum delay, citing L=4, t=8. Our exhaustive
	// search confirms that instance and finds the same phenomenon at t = 2L
	// for the other even L.
	for _, c := range []struct{ l, t int }{{4, 8}, {6, 12}, {8, 16}} {
		inst, err := NewInstance(c.l, c.t)
		if err != nil {
			t.Fatal(err)
		}
		err = inst.Solve(0)
		if err == nil {
			t.Fatalf("L=%d t=%d unexpectedly solved", c.l, c.t)
		}
		if !errors.Is(err, ErrNoSolution) {
			t.Fatalf("L=%d t=%d: want definitive infeasibility, got %v", c.l, c.t, err)
		}
	}
}

func TestTheorem34L2Impossible(t *testing.T) {
	// Theorem 3.4: for L = 2 there are infinitely many P for which delay
	// L + B(P-1) is unachievable. Our exhaustive search proves it for every
	// t in [4, 12] (t = 2 and 3 are the trivial solvable cases).
	for tt := 4; tt <= 12; tt++ {
		inst, err := NewInstance(2, tt)
		if err != nil {
			t.Fatal(err)
		}
		err = inst.Solve(0)
		if err == nil {
			t.Fatalf("L=2 t=%d unexpectedly solved", tt)
		}
		if !errors.Is(err, ErrNoSolution) {
			t.Fatalf("L=2 t=%d: want definitive infeasibility, got %v", tt, err)
		}
	}
	// The two tiny solvable cases.
	solveAndVerify(t, 2, 2, 5)
	solveAndVerify(t, 2, 3, 5)
}

func TestInductionLargeT(t *testing.T) {
	// Large horizons are reached via the inductive composition
	// I(t) = I(t-1) ⊎ I(t-L); P-1 = P(22) = 2745 processors for L=3.
	inst := solveAndVerify(t, 3, 22, 4)
	if want := int(core.NewSeq(3).F(22)); inst.P != want {
		t.Fatalf("P-1 = %d, want %d", inst.P, want)
	}
}

func TestNewInstanceRejects(t *testing.T) {
	if _, err := NewInstance(1, 5); err == nil {
		t.Fatal("L=1 accepted")
	}
	if _, err := NewInstance(3, 2); err == nil {
		t.Fatal("t < L accepted")
	}
}

func TestUnsolvedInstanceCannotSchedule(t *testing.T) {
	inst, err := NewInstance(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Assign(); err == nil {
		t.Fatal("Assign before Solve succeeded")
	}
}

func TestWordsConsumeLeafMultiset(t *testing.T) {
	inst, err := NewInstance(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Solve(0); err != nil {
		t.Fatal(err)
	}
	use := map[int]int{inst.RecvOnlyDelay: 1}
	for _, b := range inst.Blocks {
		if len(b.Word) != b.Size-1 {
			t.Fatalf("block size %d has word of length %d", b.Size, len(b.Word))
		}
		for _, d := range b.Word {
			use[d]++
		}
	}
	for d, c := range inst.LeafCount {
		if use[d] != c {
			t.Fatalf("delay %d used %d times, leaf count %d", d, use[d], c)
		}
	}
}

func TestResidueCriterion(t *testing.T) {
	// Every solved block satisfies the distinct-residue criterion (the
	// paper's automaton condition): (p - delay_p) mod r pairwise distinct.
	inst, err := NewInstance(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Solve(0); err != nil {
		t.Fatal(err)
	}
	for _, b := range inst.Blocks {
		seen := map[int]bool{mod(-b.Delay, b.Size): true}
		for p := 1; p < b.Size; p++ {
			res := mod(p-b.Word[p-1], b.Size)
			if seen[res] {
				t.Fatalf("block %+v: residue clash at position %d", b, p)
			}
			seen[res] = true
		}
	}
}

func TestFamilyWordLegalEverySize(t *testing.T) {
	// Lemma 3.1: the canonical family a^{L-2}(ca)^j b^m is legal for the
	// root block of every size, i.e. whenever t ≡ L-1 (mod size) — which is
	// exactly the root's situation, size = t-L+1.
	for l := 3; l <= 8; l++ {
		for j := 0; j <= 4; j++ {
			for m := 0; m <= 5; m++ {
				w := familyWord(l, j, m)
				size := len(w) + 1
				for _, tt := range []int{size + l - 1, 2*size + l - 1, 3*size + l - 1} {
					if !legalIdxWord(tt, size, 0, w) {
						t.Fatalf("family word L=%d j=%d m=%d illegal at t=%d", l, j, m, tt)
					}
				}
			}
		}
	}
}

func TestVerifyDelayDetectsMissingReception(t *testing.T) {
	_, s, err := SolveAndSchedule(3, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one reception of item 2.
	for i, e := range s.Events {
		if e.Op == schedule.OpRecv && e.Item == 2 {
			s.Events = append(s.Events[:i], s.Events[i+1:]...)
			break
		}
	}
	if _, err := VerifyDelay(s, 3, 100); err == nil {
		t.Fatal("missing reception not detected")
	}
}

func TestProcForIsBijectionPerItem(t *testing.T) {
	inst, err := NewInstance(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Solve(0); err != nil {
		t.Fatal(err)
	}
	a, err := inst.Assign()
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 25; x++ {
		seen := make(map[int]bool)
		for ni := range inst.Tree.Nodes {
			q := a.ProcFor(x, ni)
			if q < 1 || q > inst.P {
				t.Fatalf("item %d node %d -> proc %d out of range", x, ni, q)
			}
			if seen[q] {
				t.Fatalf("item %d: proc %d assigned twice", x, q)
			}
			seen[q] = true
		}
		if len(seen) != inst.P {
			t.Fatalf("item %d: %d procs used, want %d", x, len(seen), inst.P)
		}
	}
}

func TestTheorem35L2PlusOne(t *testing.T) {
	// Theorem 3.5: for L=2 a delay of L + B(P-1) + 1 is achievable whenever
	// P-1 = P(t), via pruned trees.
	for tt := 3; tt <= 12; tt++ {
		inst, err := SolveL2(tt)
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		if inst.Delay() != tt+3 {
			t.Fatalf("t=%d: delay %d, want %d", tt, inst.Delay(), tt+3)
		}
		a, err := inst.Assign()
		if err != nil {
			t.Fatal(err)
		}
		k := 8
		s := a.KItemSchedule(k)
		if vs := schedule.ValidateBroadcast(s, Origins(k)); len(vs) != 0 {
			t.Fatalf("t=%d: %v", tt, vs[0])
		}
		worst, err := VerifyDelay(s, k, inst.Delay())
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		if worst > tt+3 {
			t.Fatalf("t=%d: worst delay %d exceeds %d", tt, worst, tt+3)
		}
	}
}

func TestSolveL2Rejects(t *testing.T) {
	if _, err := SolveL2(1); err == nil {
		t.Fatal("t=1 accepted")
	}
}

// TestSolveErrorNamesL: a failed solve names the instance's latency L and
// reports the letter alphabet apart from it — off the P(t) grid the pruned
// tree's leaf delays span more letters than L. P-1=12 at L=2 (t=6) has no
// block-cyclic solution over its 3 letters.
func TestSolveErrorNamesL(t *testing.T) {
	inst, err := NewInstanceGeneral(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Solve(0)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("P-1=12 at L=2: err = %v, want ErrNoSolution", err)
	}
	if want := "for L=2 t=6 (alphabet 3)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestSolveErrorsNameLApartFromAlphabet covers the other two failure
// messages of the solver: an exhausted portfolio and an infeasible strong
// sum target. Each names the instance's L and prints the alphabet size
// separately; both used to print the alphabet where the message says L.
func TestSolveErrorsNameLApartFromAlphabet(t *testing.T) {
	inst, err := NewInstanceGeneral(2, 12) // alphabet 3
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = solvePortfolio(inst, []int64{1}, 1, false)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("one-node portfolio: err = %v, want ErrBudget", err)
	}
	if want := "for L=2 t=6 (alphabet 3)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}

	inst, err = NewInstanceGeneral(4, 3) // alphabet 2
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = solveBase(inst, solveOpts{strong: true})
	if want := "strong sum target infeasible (L=4 t=5, alphabet 2)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v does not contain %q", err, want)
	}
}
