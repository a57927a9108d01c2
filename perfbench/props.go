package main

import (
	"container/list"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"logpopt/internal/serve/sched"
)

// lruModel replays a request sequence against sched.Cache's eviction rule —
// the budget split evenly over the shards, an entry charged its body plus
// 64 bytes, least recently used entries dropped while a shard is over its
// share and holds more than one — to predict serve-hot's hit ratio.
type lruModel struct {
	budget int64
	shards []modelShard
}

type modelShard struct {
	lru   list.List // of sched.Key, most recent at the front
	elems map[sched.Key]*list.Element
	size  map[sched.Key]int64
	bytes int64
}

func newLRUModel(shards int, maxBytes int64) *lruModel {
	m := &lruModel{budget: maxBytes / int64(shards), shards: make([]modelShard, shards)}
	for i := range m.shards {
		m.shards[i].elems = map[sched.Key]*list.Element{}
		m.shards[i].size = map[sched.Key]int64{}
	}
	return m
}

// get answers k, of a body of n bytes, and reports whether it hit.
func (m *lruModel) get(k sched.Key, n int64) bool {
	sh := &m.shards[k.Shard(len(m.shards))]
	if e, ok := sh.elems[k]; ok {
		sh.lru.MoveToFront(e)
		return true
	}
	sh.elems[k] = sh.lru.PushFront(k)
	sh.size[k] = n + 64
	sh.bytes += n + 64
	for sh.bytes > m.budget && sh.lru.Len() > 1 {
		old := sh.lru.Remove(sh.lru.Back()).(sched.Key)
		sh.bytes -= sh.size[old]
		delete(sh.elems, old)
		delete(sh.size, old)
	}
	return false
}

// keyOf canonicalizes a request the way logpservd does by default.
func keyOf(r sched.Request) sched.Key {
	k, err := sched.Canonicalize(r, "auto")
	if err != nil {
		panic(fmt.Sprintf("workload request %+v does not canonicalize: %v", r, err)) // generator bug
	}
	return k
}

// prefillOrder is the order the n-th set-up of a serve-hot run requests
// the hot set in.
func prefillOrder(seed int64, n, size int) []int {
	return rand.New(rand.NewSource(seed + int64(n))).Perm(size)
}

// predictHitRatio replays serve-hot's last prefill and its request
// sequence through the model, in sequence order (the two clients can
// reorder neighbours, so the live ratio may differ slightly).
func predictHitRatio(seed int64, set []sched.Request, sizes []int64, ops []Op) float64 {
	m := newLRUModel(cacheShards, cacheBudget)
	size := map[sched.Request]int64{}
	for i, r := range set {
		size[r] = sizes[i]
	}
	for _, j := range prefillOrder(seed, setupsPerRun[serveHot]-1, len(set)) {
		m.get(keyOf(set[j]), sizes[j])
	}
	hits := 0
	for _, op := range ops {
		if m.get(keyOf(op.Req), size[op.Req]) {
			hits++
		}
	}
	return float64(hits) / float64(len(ops))
}

// writeProps prints the properties a workload was chosen for, for one
// seed's operations.
func writeProps(w io.Writer, workload string, seed int64, ops []Op) error {
	fmt.Fprintf(w, "workload %s, seed %d, %d operations (tail percentile p%d)\n",
		workload, seed, len(ops), tailPercentile(len(ops)))
	byOp := map[string][]float64{}
	keys := map[sched.Key]bool{}
	for _, op := range ops {
		name, p := op.Req.Op, op.Req.P
		if op.Scale > 0 {
			name, p = "conform", op.Scale
		} else {
			keys[keyOf(op.Req)] = true
		}
		byOp[name] = append(byOp[name], float64(p))
	}
	var names []string
	for n := range byOp {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-10s %6s %6s   P: %7s %7s %7s %7s %7s\n", "op", "count", "share", "min", "p25", "p50", "p75", "max")
	for _, n := range names {
		ps := byOp[n]
		fmt.Fprintf(w, "  %-10s %6d %5.1f%%   %10.0f %7.0f %7.0f %7.0f %7.0f\n", n, len(ps),
			100*float64(len(ps))/float64(len(ops)), percentile(ps, 0), percentile(ps, 25),
			percentile(ps, 50), percentile(ps, 75), percentile(ps, 100))
	}
	switch workload {
	case serveCold, serveHot, cliCertify:
		fmt.Fprintf(w, "  distinct keys: %d of %d requests\n", len(keys), len(ops))
	case cliConform:
		fmt.Fprintf(w, "  cases per invocation: %d random (conform.Generate) + broadcast and reduce scale cases\n", conformSeeds)
	}
	if workload != serveHot {
		return nil
	}
	set := hotSet()
	refs, err := references(set)
	if err != nil {
		return err
	}
	sizes := make([]int64, len(set))
	perShard := make([]int64, cacheShards)
	shardKeys := make([][]string, cacheShards)
	var total int64
	for i, r := range set {
		sizes[i] = refs[i].n
		k := keyOf(r)
		sh := k.Shard(cacheShards)
		perShard[sh] += refs[i].n + 64
		shardKeys[sh] = append(shardKeys[sh], fmt.Sprintf("%s P=%d (%.1f MB)", r.Op, r.P, float64(refs[i].n)/1e6))
		total += refs[i].n + 64
	}
	fmt.Fprintf(w, "  hot set: %d keys, %.1f MiB = %.0f%% of the %d MiB budget\n",
		len(set), float64(total)/(1<<20), 100*float64(total)/cacheBudget, cacheBudget>>20)
	shardBudget := int64(cacheBudget / cacheShards)
	over := 0
	for sh, b := range perShard {
		flag := ""
		if b > shardBudget {
			flag = "  OVER its share: these keys evict each other"
			over++
		}
		fmt.Fprintf(w, "    shard %2d: %6.1f MiB of %d MiB%s %v\n", sh, float64(b)/(1<<20), shardBudget>>20, flag, shardKeys[sh])
	}
	fmt.Fprintf(w, "  shards over their share: %d of %d\n", over, cacheShards)
	fmt.Fprintf(w, "  predicted hit ratio: %.4f\n", predictHitRatio(seed, set, sizes, ops))
	return nil
}
