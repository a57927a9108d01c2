// Package continuous implements Section 3.1–3.3 of the paper: the continuous
// broadcast problem and its block-cyclic processor assignments.
//
// A source processor generates a new item every g = 1 steps (postal model);
// every item must reach all other P-1 processors. The delay of an item is
// the time from its creation to its arrival at the last processor; the lower
// bound on the worst-case delay is L + B(P-1), achievable only if each item
// is broadcast along an optimal tree, staggered one step apart, with no
// processor ever asked to send or receive two items in one step.
//
// Block-cyclic assignments (Section 3.2): fix the optimal broadcast tree
// T_{P-1} for P-1 = P(t). Every internal node with r children gets a block
// of r processors that receive the node's "uppercase" role cyclically (the
// recipient then spends r consecutive steps sending, returning exactly in
// time for its next turn); one processor is receive-only. The remaining
// schedule entries are "words": position p of a block's cyclic reception
// pattern receives a leaf role with some delay d, and the assignment is
// correct iff within each block the quantities (p - d) mod r are pairwise
// distinct — this residue criterion is exactly the paper's automaton
// restriction, and the word's letters must exactly consume the multiset of
// leaf delays of T_{P-1} (the paper's first restriction).
//
// Solve finds words by backtracking over that exact combinatorial problem
// and the result is verified by expanding to a concrete k-item schedule and
// running the independent validator; Theorem 3.3's claim (delay L+B(P-1)
// for 3 <= L <= 10 and t large enough) is thereby checked constructively,
// and the solver is not limited to L <= 10.
package continuous

import (
	"fmt"
	"sort"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// Block is the processor block of one internal tree node.
type Block struct {
	Node  int   // tree node index in Instance.Tree
	Size  int   // number of children r; the block holds r processors
	Delay int   // the internal node's delay (its reception precedes r sends)
	Word  []int // assigned leaf delays for cyclic positions 1..Size-1
}

// Instance is one continuous-broadcast scheduling problem.
type Instance struct {
	L int // postal latency
	T int // single-item broadcast time; the item delay target is L+T
	P int // number of non-source processors

	Tree      *core.Tree // the broadcast tree (node 0 = root)
	Blocks    []Block    // one per internal node, sorted by descending size
	LeafCount map[int]int
	// RecvOnlyDelay is the leaf delay assigned to the receive-only
	// processor (set by Solve).
	RecvOnlyDelay int
	solved        bool
}

// NewInstance builds the instance for postal latency l and broadcast time t,
// requiring P-1 = P(t) (complete optimal tree, the regime of Section 3.2).
// It returns an error for l < 2 (l = 1 means every step's tree doubles and no
// processor is ever free; continuous broadcast degenerates) or t < l.
func NewInstance(l, t int) (*Instance, error) {
	if l < 2 {
		return nil, fmt.Errorf("continuous: latency %d < 2", l)
	}
	if t < l {
		return nil, fmt.Errorf("continuous: t=%d < L=%d (single non-source processor; trivial)", t, l)
	}
	return NewInstanceGeneral(l, int(core.SeqFor(l).F(t)))
}

// newFromTree derives blocks and leaf counts from any broadcast tree whose
// internal nodes have consecutive earliest children (true for optimal trees
// and for suffix-pruned trees used in the L=2 construction).
func newFromTree(l, t int, tree *core.Tree) (*Instance, error) {
	inst := &Instance{L: l, T: t, P: tree.P(), Tree: tree, LeafCount: make(map[int]int)}
	for ni, nd := range tree.Nodes {
		if len(nd.Children) == 0 {
			inst.LeafCount[int(nd.Label)]++
			continue
		}
		// Children must sit at consecutive delays d+l, d+l+1, ...: the
		// uppercase recipient sends for exactly r consecutive steps.
		for i, ci := range nd.Children {
			want := nd.Label + logp.Time(l) + logp.Time(i)
			if tree.Nodes[ci].Label != want {
				return nil, fmt.Errorf("continuous: node %d child %d at delay %d, want %d (non-consecutive children)",
					ni, i, tree.Nodes[ci].Label, want)
			}
		}
		inst.Blocks = append(inst.Blocks, Block{
			Node:  ni,
			Size:  len(nd.Children),
			Delay: int(nd.Label),
		})
	}
	// Most-constrained-first: small blocks have the fewest legal words, so
	// the backtracking solver handles them before the flexible large blocks.
	sort.SliceStable(inst.Blocks, func(i, j int) bool {
		if inst.Blocks[i].Size != inst.Blocks[j].Size {
			return inst.Blocks[i].Size < inst.Blocks[j].Size
		}
		return inst.Blocks[i].Delay < inst.Blocks[j].Delay
	})
	// Sanity: sum of block sizes + 1 receive-only = P-1... here Tree.P()
	// counts the non-source processors' tree nodes, so sum r_b = P-2? No:
	// the tree has P nodes and P-1 edges; each edge is one block slot, and
	// slots per block = size, so sum sizes = edges = tree.P()-1. With the
	// uppercase slot being the node's own reception... each node except the
	// root receives once per item; the root also receives (from the
	// source). Slots: each block of size r has r cyclic positions; total
	// positions = sum r_b + (receive-only 1) must equal tree.P().
	total := 1
	for _, b := range inst.Blocks {
		total += b.Size
	}
	words := 0
	for _, c := range inst.LeafCount {
		words += c
	}
	if total != tree.P() {
		return nil, fmt.Errorf("continuous: %d cyclic positions for %d processors", total, tree.P())
	}
	if want := wordSlots(inst); words != want {
		return nil, fmt.Errorf("continuous: %d leaves for %d word slots", words, want)
	}
	return inst, nil
}

// alphabet returns the number of letter indices in play: max over leaves of
// (T - delay) + 1. For complete optimal trees this equals L.
func (inst *Instance) alphabet() int {
	n := 1
	for d := range inst.LeafCount {
		if i := inst.T - d + 1; i > n {
			n = i
		}
	}
	return n
}

func wordSlots(inst *Instance) int {
	n := 1 // receive-only
	for _, b := range inst.Blocks {
		n += b.Size - 1
	}
	return n
}

func mod(a, r int) int { return ((a % r) + r) % r }

// solveDirectSeeds is the number of letter orders the direct (non-strong)
// portfolio races before falling back to the inductive construction.
const solveDirectSeeds = 4

// Solve assigns words to every block and a delay to the receive-only
// processor. It first runs a parallel portfolio of direct backtracking
// searches over the exact letter multiset and the residue criterion — all
// letter-order seeds race on up to par.Limit() workers, with the lowest
// successful seed winning so results match sequential execution exactly
// (maxNodes bounds each attempt; <= 0 means a default). If direct search
// does not finish, it falls back to the paper's inductive construction
// (Section 3.3): strong base cases with the receive-only processor on 'b'
// and the root word in the canonical family a^{L-2}(ca)^j b^m, composed
// upward via I(t) = I(t-1) ⊎ I(t-L). Results are memoized package-wide, so
// repeated solves of the same instance are O(solution size). On success the
// instance is marked solved and can build schedules. Solve may be called
// concurrently on different Instance values for the same problem; a single
// Instance must not be solved from multiple goroutines at once (Solve
// mutates the receiver's blocks).
func (inst *Instance) Solve(maxNodes int64) error {
	if maxNodes <= 0 {
		maxNodes = 4_000_000
	}
	words, recv, err := solveCached(inst, []int64{maxNodes}, solveDirectSeeds, false)
	if err == nil {
		for bi := range inst.Blocks {
			b := &inst.Blocks[bi]
			b.Word = make([]int, len(words[bi]))
			for i, ix := range words[bi] {
				b.Word[i] = inst.T - ix
			}
		}
		inst.RecvOnlyDelay = inst.T - recv
		inst.solved = true
		return nil
	}
	if !isBudgetErr(err) {
		// Exhaustive search proved no solution exists (the letter order
		// does not affect completeness): report immediately.
		return err
	}
	if inst.L < 3 {
		return err
	}
	if sol := strongFor(inst.L, inst.T); sol != nil {
		if aerr := applySolution(inst, sol); aerr == nil {
			return nil
		}
	}
	return err
}

// Delay returns the per-item delay the solved instance achieves: L + T.
func (inst *Instance) Delay() int { return inst.L + inst.T }

// slot identifies one cyclic reception position: block index (or -1 for the
// receive-only processor) and position within the block's cyclic word.
type slot struct {
	block int
	pos   int
}

// Assignment maps tree nodes to cyclic slots and processors; build one with
// Assign after Solve succeeds.
type Assignment struct {
	Inst       *Instance
	SlotOf     []slot  // per tree node
	BlockProcs [][]int // processor ids per block (size r each)
	RecvOnly   int     // processor id of the receive-only processor
	Source     int     // processor id of the source (always 0)
}

// Assign lays out processors: the source is processor 0; each block gets the
// next Size processor ids; the receive-only processor is the last id (= P).
// Tree leaves are matched to word slots of equal delay in deterministic
// order.
func (inst *Instance) Assign() (*Assignment, error) {
	if !inst.solved {
		return nil, fmt.Errorf("continuous: instance not solved")
	}
	a := &Assignment{Inst: inst, Source: 0}
	a.SlotOf = make([]slot, inst.Tree.P())
	next := 1
	a.BlockProcs = make([][]int, len(inst.Blocks))
	slotsByDelay := make(map[int][]slot)
	for bi, b := range inst.Blocks {
		procs := make([]int, b.Size)
		for j := range procs {
			procs[j] = next
			next++
		}
		a.BlockProcs[bi] = procs
		a.SlotOf[b.Node] = slot{block: bi, pos: 0}
		for p := 1; p < b.Size; p++ {
			d := b.Word[p-1]
			slotsByDelay[d] = append(slotsByDelay[d], slot{block: bi, pos: p})
		}
	}
	a.RecvOnly = next
	next++
	slotsByDelay[inst.RecvOnlyDelay] = append(slotsByDelay[inst.RecvOnlyDelay], slot{block: -1})
	// Match leaves (in node order) to slots of the same delay.
	used := make(map[int]int)
	for ni, nd := range inst.Tree.Nodes {
		if len(nd.Children) > 0 {
			continue
		}
		d := int(nd.Label)
		ss := slotsByDelay[d]
		k := used[d]
		if k >= len(ss) {
			return nil, fmt.Errorf("continuous: no slot left for leaf delay %d", d)
		}
		used[d]++
		a.SlotOf[ni] = ss[k]
	}
	return a, nil
}

// ProcFor returns the processor that handles tree node ni for item x.
func (a *Assignment) ProcFor(x, ni int) int {
	s := a.SlotOf[ni]
	if s.block < 0 {
		return a.RecvOnly
	}
	b := a.Inst.Blocks[s.block]
	sigma := x + a.Inst.L + int(a.Inst.Tree.Nodes[ni].Label)
	j := mod(sigma-s.pos, b.Size)
	return a.BlockProcs[s.block][j]
}

// KItemSchedule expands the solved instance into a complete schedule
// broadcasting items 0..k-1 (item x generated at the source at time x) on
// P+1 processors (source = 0). Every item's delay is exactly L + T, so the
// last reception is at k-1+L+T and the whole broadcast finishes at
// B(P-1) + L + k - 1 — the single-sending lower bound of Section 3.4.
func (a *Assignment) KItemSchedule(k int) *schedule.Schedule {
	inst := a.Inst
	m := logp.Postal(inst.P+1, logp.Time(inst.L))
	s := &schedule.Schedule{M: m}
	for x := 0; x < k; x++ {
		// Source to root.
		root := a.ProcFor(x, 0)
		s.Send(a.Source, logp.Time(x), x, root)
		s.Recv(root, logp.Time(x+inst.L), x, a.Source)
		// Tree sends.
		for ni, nd := range inst.Tree.Nodes {
			if len(nd.Children) == 0 {
				continue
			}
			from := a.ProcFor(x, ni)
			for i, ci := range nd.Children {
				st := logp.Time(x + inst.L + int(nd.Label) + i)
				to := a.ProcFor(x, ci)
				s.Send(from, st, x, to)
				s.Recv(to, st+m.L, x, from)
			}
		}
	}
	return s
}

// Origins returns the origin map for a k-item schedule from KItemSchedule.
func Origins(k int) map[int]schedule.Origin {
	og := make(map[int]schedule.Origin, k)
	for x := 0; x < k; x++ {
		og[x] = schedule.Origin{Proc: 0, Time: logp.Time(x)}
	}
	return og
}

// VerifyDelay checks that in the schedule every item x is fully delivered by
// x + maxDelay and returns the worst observed delay.
func VerifyDelay(s *schedule.Schedule, k int, maxDelay int) (int, error) {
	worst := 0
	for x := 0; x < k; x++ {
		var last logp.Time
		n := 0
		for _, e := range s.Events {
			if e.Op == schedule.OpRecv && e.Item == x {
				n++
				if t := e.Time + s.M.O; t > last {
					last = t
				}
			}
		}
		if n != s.M.P-1 {
			return 0, fmt.Errorf("continuous: item %d delivered to %d of %d processors", x, n, s.M.P-1)
		}
		d := int(last) - x
		if d > worst {
			worst = d
		}
		if d > maxDelay {
			return worst, fmt.Errorf("continuous: item %d delay %d exceeds %d", x, d, maxDelay)
		}
	}
	return worst, nil
}

// SolveAndSchedule is the one-call convenience: build the instance for
// (l, t), solve it, assign processors and emit a k-item schedule.
func SolveAndSchedule(l, t, k int) (*Instance, *schedule.Schedule, error) {
	inst, err := NewInstance(l, t)
	if err != nil {
		return nil, nil, err
	}
	return inst.solveAndSchedule(k)
}

// NewInstanceGeneral builds a continuous-broadcast instance for ANY number
// p >= 2 of non-source processors (not only p = P(t)): the broadcast tree is
// the optimal tree ß(p) with horizon t = B(p), and blocks/letters derive
// from it exactly as in Section 3.2. The paper analyzes only p = P(t) ("the
// tree is unique"); solving the general instance, when the word search
// succeeds, extends the optimal-delay result to every p — and therefore
// yields exact single-sending optimal k-item broadcast for every P.
func NewInstanceGeneral(l, p int) (*Instance, error) {
	if l < 2 {
		return nil, fmt.Errorf("continuous: latency %d < 2", l)
	}
	if p < 2 {
		return nil, fmt.Errorf("continuous: need at least 2 non-source processors, got %d", p)
	}
	t := core.SeqFor(l).InvF(int64(p))
	tree := core.OptimalTree(logp.Postal(p, logp.Time(l)), p)
	if got := int(tree.MaxLabel()); got != t {
		return nil, fmt.Errorf("continuous: tree max label %d != B(p)=%d", got, t)
	}
	return newFromTree(l, t, tree)
}

// SolveGeneralAndSchedule is SolveAndSchedule for arbitrary P-1 = p (not
// only p = P(t)): it builds the general instance, solves the word
// assignment, and emits a k-item schedule with per-item delay exactly
// L + B(p). It fails (with ErrNoSolution or ErrBudget inside) when no
// block-cyclic solution exists — notably for L = 2 near p = P(t).
func SolveGeneralAndSchedule(l, p, k int) (*Instance, *schedule.Schedule, error) {
	inst, err := NewInstanceGeneral(l, p)
	if err != nil {
		return nil, nil, err
	}
	return inst.solveAndSchedule(k)
}

// solveAndSchedule solves inst, assigns processors and emits a k-item
// schedule.
func (inst *Instance) solveAndSchedule(k int) (*Instance, *schedule.Schedule, error) {
	if err := inst.Solve(0); err != nil {
		return nil, nil, err
	}
	a, err := inst.Assign()
	if err != nil {
		return nil, nil, err
	}
	return inst, a.KItemSchedule(k), nil
}
