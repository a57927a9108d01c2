package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"logpopt/internal/logp"
	"logpopt/internal/serve/sched"
)

// Workload names, as BENCHMARK.json lists them.
const (
	serveCold   = "serve-cold"
	serveHot    = "serve-hot"
	cliCertify  = "cli-certify"
	cliConform  = "cli-conform"
	cacheBudget = 256 << 20 // logpservd's default -cache-bytes
	cacheShards = 16        // logpservd's default -shards
)

var workloads = []string{serveCold, serveHot, cliCertify, cliConform}

// opsPerSecond fixes each workload's operation count as a function of
// --seconds alone: a run issues ceil(rate × seconds) operations, never more
// or fewer however fast the machine is, so every run with the same
// --seconds does the same work. The rates were set so the timed window lasts
// about --seconds on a 2-core x86-64 machine.
var opsPerSecond = map[string]float64{
	serveCold:  35,
	serveHot:   200,
	cliCertify: 2.3,
	cliConform: 2.5,
}

// machines are the (L, o, g) shapes the cold and certify workloads spread
// their requests over: the CLI default plus three that move the tree shape.
var machines = []logp.Machine{
	{L: 6, O: 2, G: 4},
	{L: 8, O: 3, G: 5},
	{L: 12, O: 2, G: 2},
	{L: 4, O: 1, G: 1},
}

// Op is one operation of a run: a schedule request (serve workloads and
// cli-certify) or one conformance invocation (cli-conform).
type Op struct {
	Req sched.Request
	// cli-conform: the random-seed range and the scale-case processor count.
	Seeds int
	Start int64
	Scale int
}

// conformSeeds is the number of small random cases in every cli-conform
// invocation, beside its one large scale case.
const conformSeeds = 40

// URL is the /v1/schedule query that asks the service for op's schedule
// bytes.
func (op Op) URL(base string) string {
	r := op.Req
	q := url.Values{
		"op":     {r.Op},
		"p":      {strconv.Itoa(r.P)},
		"l":      {strconv.FormatInt(int64(r.L), 10)},
		"o":      {strconv.FormatInt(int64(r.O), 10)},
		"g":      {strconv.FormatInt(int64(r.G), 10)},
		"k":      {strconv.Itoa(r.K)},
		"format": {"schedule"},
	}
	return base + "/v1/schedule?" + q.Encode()
}

// CLIArgs is the command line op runs as: logpsched for cli-certify (the
// report path is appended by the caller), logpconform for cli-conform.
func (op Op) CLIArgs() []string {
	if op.Scale > 0 {
		return []string{"-paper=false", "-seeds", strconv.Itoa(op.Seeds),
			"-start", strconv.FormatInt(op.Start, 10), "-scale", strconv.Itoa(op.Scale)}
	}
	r := op.Req
	return []string{"-op", r.Op, "-P", strconv.Itoa(r.P),
		"-L", strconv.FormatInt(int64(r.L), 10),
		"-o", strconv.FormatInt(int64(r.O), 10),
		"-g", strconv.FormatInt(int64(r.G), 10)}
}

// numOps is the fixed operation count of a run of the given length.
func numOps(workload string, seconds int) int {
	n := int(math.Ceil(opsPerSecond[workload] * float64(seconds)))
	if n < 20 {
		n = 20 // enough samples for a tail percentile above the median
	}
	return n
}

// logGrid is n processor counts spaced evenly in log space from lo to hi,
// both ends included: the quantiles of a log-uniform draw. Every seed gets
// the same sizes, so run-to-run spread comes from the program and not from
// a draw of larger or smaller inputs.
func logGrid(n int, lo, hi float64) []int {
	a, b := math.Log(lo), math.Log(hi)
	out := make([]int, n)
	for i := range out {
		u := 0.0
		if n > 1 {
			u = float64(i) / float64(n-1)
		}
		out[i] = int(math.Round(math.Exp(a + u*(b-a))))
	}
	return out
}

// mix is one op class of a request workload: its share of the operations
// and the processor range its P is drawn from.
type mix struct {
	op     string
	share  float64
	lo, hi float64
}

// coldMix is serve-cold's: the three tree ops at P log-uniform in
// [10⁴, 10⁵], which exercise the tree constructor and the schedule
// expansion, plus a share of alltoall, which compiles without a tree.
var coldMix = []mix{
	{"broadcast", 7.0 / 24, 1e4, 1e5},
	{"reduce", 7.0 / 24, 1e4, 1e5},
	{"scan", 7.0 / 24, 1e4, 1e5},
	{"alltoall", 3.0 / 24, 128, 384},
}

// certifyMix is cli-certify's: the tree ops the paper certifies, at the
// same sizes as serve-cold.
var certifyMix = []mix{
	{"broadcast", 1.0 / 3, 1e4, 1e5},
	{"reduce", 1.0 / 3, 1e4, 1e5},
	{"scan", 1.0 / 3, 1e4, 1e5},
}

// requests builds n distinct requests of the mix: exact per-class counts,
// each class's P on a log grid over its range, machines dealt round-robin
// along the grid (starting one machine further on for each class), and the
// whole list shuffled by the seed. Every seed thus gets the same set of
// requests and the seed decides only the order they arrive in. Machines
// dealt by the seed would let the tree shapes that fall at the sizes around
// the median move p50_ms from seed to seed.
func requests(rng *rand.Rand, n int, mx []mix) []Op {
	counts := make([]int, len(mx))
	left := n
	for i, m := range mx {
		counts[i] = int(math.Round(m.share * float64(n)))
		if i == len(mx)-1 || counts[i] > left {
			counts[i] = left
		}
		left -= counts[i]
	}
	seen := map[sched.Request]bool{}
	var ops []Op
	for i, m := range mx {
		for j, p := range logGrid(counts[i], m.lo, m.hi) {
			mc := machines[(i+j)%len(machines)]
			req := sched.Request{Op: m.op, P: p, L: mc.L, O: mc.O, G: mc.G, K: 1}
			for seen[req] {
				req.P++ // keys never repeat within a run
			}
			seen[req] = true
			ops = append(ops, Op{Req: req})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// hotSet is serve-hot's working set: broadcast, reduce and scan on the
// default machine at seven processor counts spaced evenly in log space over
// [10⁴, 10⁵]. Its serialized size is about half the 256 MiB default cache
// budget. The set is fixed by this rule and ignores the cache's sharding;
// how its keys fall onto shards is whatever the key hash gives (see
// props.go, which reports it).
func hotSet() []sched.Request {
	var out []sched.Request
	for _, p := range logGrid(7, 1e4, 1e5) {
		for _, op := range []string{"broadcast", "reduce", "scan"} {
			out = append(out, sched.Request{Op: op, P: p, L: 6, O: 2, G: 4, K: 1})
		}
	}
	return out
}

// zipfExponent is the skew of serve-hot's key popularity.
const zipfExponent = 1.0

// hotSequence is serve-hot's request stream of about n requests over the
// hot set. Keys are ranked by processor count, smallest first, and rank r
// gets a Zipf(1) share of the traffic: job launchers ask for small
// collectives more often than large ones. Each key's requests are spread
// evenly over the run with a seeded phase, so every seed sees the same mix
// at the same density and the seed changes only the interleaving.
func hotSequence(rng *rand.Rand, n int, set []sched.Request) []Op {
	ranked := append([]sched.Request(nil), set...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].P < ranked[j].P })
	var wsum float64
	for r := range ranked {
		wsum += 1 / math.Pow(float64(r+1), zipfExponent)
	}
	type slot struct {
		at, tie float64
		req     sched.Request
	}
	var slots []slot
	for r, req := range ranked {
		c := int(math.Round(float64(n) / math.Pow(float64(r+1), zipfExponent) / wsum))
		if c < 1 {
			c = 1
		}
		phase := rng.Float64()
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(phase + float64(j)) / float64(c), rng.Float64(), req})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].at != slots[j].at {
			return slots[i].at < slots[j].at
		}
		return slots[i].tie < slots[j].tie
	})
	ops := make([]Op, len(slots))
	for i, s := range slots {
		ops[i] = Op{Req: s.req}
	}
	return ops
}

// conformOps builds cli-conform's invocations: each checks conformSeeds
// small random cases (its own range of conform.Generate seeds) and the
// broadcast and reduce scale cases at one P, on a log grid over
// [10³, 3·10⁴]. As in requests, every seed gets the same invocations and
// decides only their order: random cases picked by the seed would move each
// invocation's cost from seed to seed.
func conformOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i, p := range logGrid(n, 1e3, 3e4) {
		ops[i] = Op{Seeds: conformSeeds, Start: int64(i * conformSeeds), Scale: p}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// generate is the seeded operation sequence of one run.
func generate(workload string, seed int64, seconds int) ([]Op, error) {
	rng := rand.New(rand.NewSource(seed))
	n := numOps(workload, seconds)
	switch workload {
	case serveCold:
		return requests(rng, n, coldMix), nil
	case serveHot:
		return hotSequence(rng, n, hotSet()), nil
	case cliCertify:
		return requests(rng, n, certifyMix), nil
	case cliConform:
		return conformOps(rng, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}
