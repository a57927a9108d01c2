// Package kitem implements Section 3 and 3.4–3.5 of the paper: broadcasting
// k items from one source to P-1 other processors in the postal model.
//
// Lower bounds (Theorem 3.1 and the single-sending bound of Section 3.4)
// come from the generalized Fibonacci machinery in internal/core. Three
// schedulers cover the paper's constructions:
//
//   - ViaContinuous: for P-1 = P(t), the continuous-broadcast block-cyclic
//     assignment of Section 3.2 broadcasts item x with delay exactly
//     L + B(P-1), so k items finish at B(P-1) + L + k - 1 — the
//     single-sending lower bound, met exactly, with no buffering. (This is
//     the "optimal continuous phase" route the paper describes after
//     Theorem 3.2 and realizes in Figure 2.)
//   - Greedy (strict): a general single-sending scheduler for any P and k
//     that fills each postal step with useful transmissions; the harness
//     checks its completion against Theorem 3.6's B(P-1) + 2L + k - 2.
//   - Greedy (buffered): the same under the modified model of Section 3.5
//     (arrivals wait in a small input buffer), targeting Theorem 3.8's
//     B(P-1) + L + k - 1 with buffer size reported.
//
// DeriveBlockDigraph reproduces Figure 3's block transmission digraph from a
// block-cyclic solution, and VerifyDigraph checks the degree constraints the
// paper states (edge weights into and out of a block of size r sum to r; the
// receive-only block has in-weight 1 and out-weight 0).
package kitem

import (
	"fmt"

	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

// Bounds collects the closed-form bounds for a (P, L, k) instance.
type Bounds struct {
	B             int   // B(P-1): optimal single-item broadcast time
	KStar         int64 // k*: endgame items (Section 3)
	Lower         int64 // Theorem 3.1: B(P-1) + L + (k-1) - k*
	SingleSending int64 // Section 3.4: B(P-1) + L + k - 1
	Upper         int64 // Theorem 3.6: B(P-1) + 2L + k - 2
}

// BoundsFor computes the bounds. p counts all processors including the
// source; p >= 2, k >= 1.
func BoundsFor(l, p int, k int64) Bounds {
	seq := core.SeqFor(l)
	b := seq.InvF(int64(p - 1))
	return Bounds{
		B:             b,
		KStar:         seq.KStar(p),
		Lower:         seq.KItemLowerBound(p, k),
		SingleSending: seq.SingleSendingLowerBound(p, k),
		Upper:         int64(b) + 2*int64(l) + k - 2,
	}
}

// ViaContinuous builds the optimal single-sending k-item schedule for
// P-1 = P(t) processors via the block-cyclic continuous-broadcast solution.
// It returns the instance (for inspection) and the schedule; the schedule's
// last reception is at B(P-1) + L + k - 1.
func ViaContinuous(l, t, k int) (*continuous.Instance, *schedule.Schedule, error) {
	return continuous.SolveAndSchedule(l, t, k)
}

// Result reports a greedy run.
type Result struct {
	Schedule  *schedule.Schedule
	Finish    logp.Time // availability time of the last reception
	MaxBuffer int       // largest input-buffer occupancy (buffered mode)
}

// Mode selects the reception discipline for the greedy scheduler.
type Mode int

// Reception disciplines.
const (
	Strict   Mode = iota // plain postal model: at most one arrival per step
	Buffered             // Section 3.5: arrivals queue; one reception per step
)

// Greedy builds a single-sending k-item broadcast schedule for any P >= 2
// and k >= 1 in the postal model with latency l, by per-step greedy
// matching: the source transmits item x exactly once at time x-0 (steps
// 0..k-1); every other processor, when free, forwards the rarest item it
// holds to the neediest processor that lacks it and can accept the arrival.
//
// In Strict mode an arrival is only scheduled onto a processor with no other
// arrival due that step; in Buffered mode arrivals may bunch and the
// receiving processor drains one per step (the modified model of Theorem
// 3.8). The returned schedule passes schedule.Validate (strict) or
// schedule.ValidateDeferred (buffered) plus availability/completeness.
func Greedy(l logp.Time, p, k int, mode Mode) (Result, error) {
	if p < 2 || k < 1 || l < 1 {
		return Result{}, fmt.Errorf("kitem: bad instance P=%d k=%d L=%d", p, k, l)
	}
	m := logp.Postal(p, l)
	s := &schedule.Schedule{M: m}

	type flight struct {
		item, from, to int
		arrive         logp.Time
	}
	holds := make([][]bool, p)   // holds[proc][item]
	pending := make([][]bool, p) // an in-flight or queued copy heads there
	for i := range holds {
		holds[i] = make([]bool, k)
		pending[i] = make([]bool, k)
	}
	for x := 0; x < k; x++ {
		holds[0][x] = true // source holds everything (generated by time x)
	}
	var flights []flight
	// arrivalsAt[time][proc] = number of arrivals scheduled (strict: <=1).
	arrivalsAt := make(map[logp.Time]map[int]int)
	reserve := func(at logp.Time, proc int) {
		if arrivalsAt[at] == nil {
			arrivalsAt[at] = make(map[int]int)
		}
		arrivalsAt[at][proc]++
	}
	inTransit := make([]int, p) // messages currently in flight per receiver
	capTo := int(l)             // network capacity ceil(L/g) toward one processor
	free := func(at logp.Time, proc int) bool {
		if inTransit[proc] >= capTo {
			return false
		}
		if mode == Buffered {
			return true
		}
		return arrivalsAt[at][proc] == 0
	}
	queues := make([][]flight, p) // buffered mode: arrived, undelivered
	maxBuf := 0
	var finish logp.Time
	done := func() bool {
		for i := 0; i < p; i++ {
			for x := 0; x < k; x++ {
				if !holds[i][x] {
					return false
				}
			}
		}
		return true
	}
	rarity := make([]int, k) // number of processors holding each item
	for x := 0; x < k; x++ {
		rarity[x] = 1
	}
	needCount := make([]int, p) // items still missing per proc
	for i := 1; i < p; i++ {
		needCount[i] = k
	}

	horizon := logp.Time(int64(p+k)*int64(l+2) + 64)
	for sigma := logp.Time(0); sigma < horizon; sigma++ {
		// Deliveries at sigma.
		rest := flights[:0]
		for _, f := range flights {
			if f.arrive == sigma {
				queues[f.to] = append(queues[f.to], f)
				inTransit[f.to]--
				if len(queues[f.to]) > maxBuf {
					maxBuf = len(queues[f.to])
				}
			} else {
				rest = append(rest, f)
			}
		}
		flights = rest
		for i := 0; i < p; i++ {
			if len(queues[i]) == 0 {
				continue
			}
			// Receive one (strict mode never has more than one).
			f := queues[i][0]
			queues[i] = queues[i][1:]
			s.Recv(i, sigma, f.item, f.from)
			if !holds[i][f.item] {
				holds[i][f.item] = true
				rarity[f.item]++
				needCount[i]--
			}
			if sigma > finish {
				finish = sigma
			}
			if mode == Strict && len(queues[i]) > 0 {
				return Result{}, fmt.Errorf("kitem: internal: strict queue at proc %d", i)
			}
		}
		if done() && len(flights) == 0 {
			break
		}
		// Sends at sigma. The source is single-sending: item sigma only.
		if sigma < logp.Time(k) {
			x := int(sigma)
			to := pickReceiver(x, p, holds, pending, needCount, func(q int) bool { return free(sigma+l, q) })
			if to < 0 {
				return Result{}, fmt.Errorf("kitem: no receiver for source item %d at %d", x, sigma)
			}
			s.Send(0, sigma, x, to)
			pending[to][x] = true
			flights = append(flights, flight{item: x, from: 0, to: to, arrive: sigma + l})
			inTransit[to]++
			reserve(sigma+l, to)
		}
		for i := 1; i < p; i++ {
			// Choose the rarest held item some acceptable processor lacks.
			bestItem, bestTo, bestRank := -1, -1, 1<<30
			for x := 0; x < k; x++ {
				if !holds[i][x] || rarity[x] >= p {
					continue
				}
				to := pickReceiver(x, p, holds, pending, needCount, func(q int) bool { return q != i && free(sigma+l, q) })
				if to < 0 {
					continue
				}
				// Rank: rarity first, then item order (older items first,
				// keeping completion FIFO).
				rank := rarity[x]*k + x
				if rank < bestRank {
					bestRank, bestItem, bestTo = rank, x, to
				}
			}
			if bestItem < 0 {
				continue
			}
			s.Send(i, sigma, bestItem, bestTo)
			pending[bestTo][bestItem] = true
			flights = append(flights, flight{item: bestItem, from: i, to: bestTo, arrive: sigma + l})
			inTransit[bestTo]++
			reserve(sigma+l, bestTo)
		}
	}
	if !done() {
		return Result{}, fmt.Errorf("kitem: greedy did not complete within the horizon (P=%d k=%d L=%d)", p, k, l)
	}
	return Result{Schedule: s, Finish: finish, MaxBuffer: maxBuf}, nil
}

// pickReceiver returns the processor that should receive item x: among
// processors lacking x with no copy already heading there and passing ok,
// the one missing the most items (the schedule's future bottleneck), ties to
// the lowest id. Returns -1 if none.
func pickReceiver(x, p int, holds, pending [][]bool, needCount []int, ok func(int) bool) int {
	best, bestNeed := -1, -1
	for q := 1; q < p; q++ {
		if holds[q][x] || pending[q][x] || !ok(q) {
			continue
		}
		if needCount[q] > bestNeed {
			best, bestNeed = q, needCount[q]
		}
	}
	return best
}

// Origins returns the origin map for a k-item broadcast: item x enters at
// the source (processor 0) at time x (the continuous generation convention;
// it is also valid for schedules that send item x no earlier than x).
var Origins = continuous.Origins

// OptimalGeneral builds the exact single-sending-optimal k-item schedule
// for an arbitrary processor count p (including the source) by solving the
// general block-cyclic instance on the optimal tree ß(p-1): completion
// B(p-1) + L + k - 1 with no buffering. This goes beyond the paper, which
// constructs optimal schedules only for p-1 = P(t); the word search can
// fail (notably for L = 2 near p-1 = P(t), the regime of Theorem 3.4), in
// which case Staggered or Greedy apply.
func OptimalGeneral(l logp.Time, p, k int) (*continuous.Instance, *schedule.Schedule, error) {
	return continuous.SolveGeneralAndSchedule(int(l), p-1, k)
}
