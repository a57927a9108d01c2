package sched

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"logpopt/internal/obs"
)

func testKey(t *testing.T, req Request) Key {
	t.Helper()
	k, err := Canonicalize(req, "")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheCoalescing is the tentpole guarantee: N concurrent identical cold
// requests run the solver exactly once — one miss, N-1 coalesced (or, for
// stragglers arriving after the solve finished, hits).
func TestCacheCoalescing(t *testing.T) {
	const n = 32
	reg := obs.NewRegistry()
	c := NewCache(4, 0, reg)
	k := testKey(t, Request{Op: "broadcast", P: 512, L: 6, O: 2, G: 4, K: 1})

	// Gate every goroutine on a barrier so the requests are genuinely
	// concurrent, then count the outcomes.
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		byKind  = map[Outcome]int{}
		results = map[string]int{}
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, out, err := c.Get(k)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			mu.Lock()
			byKind[out]++
			results[string(res.JSON)]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if byKind[Miss] != 1 {
		t.Fatalf("misses = %d, want exactly 1 (outcomes: %v)", byKind[Miss], byKind)
	}
	if byKind[Miss]+byKind[Hit]+byKind[Coalesced] != n {
		t.Fatalf("outcomes don't sum to %d: %v", n, byKind)
	}
	if len(results) != 1 {
		t.Fatalf("%d distinct JSON payloads for one key, want 1", len(results))
	}

	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
	if total.Misses != 1 {
		t.Fatalf("shard stats misses = %d, want 1", total.Misses)
	}
	if total.Hits+total.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", total.Hits+total.Coalesced, n-1)
	}
	if got := reg.Counter("servd.cache.misses").Value(); got != 1 {
		t.Fatalf("registry misses = %d, want 1", got)
	}
}

func TestCacheHitServesSameBytes(t *testing.T) {
	c := NewCache(2, 0, obs.NewRegistry())
	k := testKey(t, Request{Op: "broadcast", P: 8, L: 6, O: 2, G: 4, K: 1})
	first, out, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("first Get outcome = %q, want miss", out)
	}
	second, out, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit {
		t.Fatalf("second Get outcome = %q, want hit", out)
	}
	if !bytes.Equal(first.JSON, second.JSON) {
		t.Fatal("hit returned different bytes than the miss")
	}
	if second.Finish != first.Finish {
		t.Fatalf("finish changed across hit: %d vs %d", second.Finish, first.Finish)
	}
}

// TestCacheEviction fills a tiny cache past its byte budget and checks LRU
// order: the oldest untouched entries go first and recently-used ones stay.
func TestCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	// One shard so LRU order is globally observable; a budget that holds
	// only a few small schedules.
	c := NewCache(1, 2048, reg)
	keys := make([]Key, 0, 12)
	for p := 2; p < 14; p++ {
		keys = append(keys, testKey(t, Request{Op: "broadcast", P: p, L: 6, O: 2, G: 4, K: 1}))
	}
	for _, k := range keys {
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
	if total.Evictions == 0 {
		t.Fatalf("no evictions after inserting %d entries into a 2 KiB cache (bytes=%d)", len(keys), total.Bytes)
	}
	if total.Bytes > 2048 {
		t.Fatalf("cache holds %d bytes, budget 2048", total.Bytes)
	}
	// The most recent key must have survived.
	if _, out, err := c.Get(keys[len(keys)-1]); err != nil || out != Hit {
		t.Fatalf("most recent key: outcome=%q err=%v, want hit", out, err)
	}
	// The oldest key was evicted, so refetching it is a miss.
	if _, out, err := c.Get(keys[0]); err != nil || out != Miss {
		t.Fatalf("oldest key: outcome=%q err=%v, want miss", out, err)
	}
}

// TestCacheErrorNotCached: a failed solve must not leave a poisoned entry —
// the next identical request retries (and fails again, freshly).
func TestCacheErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(1, 0, reg)
	// kitem with k=2, P=1 in the postal model: capacity C(L)=1 < k, so the
	// solver reports infeasibility.
	k := Key{Op: "kitem", P: 1, L: 1, O: 0, G: 1, K: 5}
	_, out, err := c.Get(k)
	if err == nil {
		t.Fatal("expected solve error")
	}
	if out != Miss {
		t.Fatalf("outcome = %q, want miss", out)
	}
	_, out, err = c.Get(k)
	if err == nil {
		t.Fatal("expected second solve error")
	}
	if out != Miss {
		t.Fatalf("second failed request outcome = %q, want miss (errors must not cache)", out)
	}
	var total ShardStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
	if total.Size != 0 {
		t.Fatalf("cache holds %d entries after only failed solves, want 0", total.Size)
	}
	if got := reg.Counter("servd.cache.solve.errors").Value(); got != 2 {
		t.Fatalf("solve error counter = %d, want 2", got)
	}
}

func TestCacheConstructorRespected(t *testing.T) {
	c := NewCache(1, 0, obs.NewRegistry())
	// The same machine through both constructors must yield the same
	// makespan (logtime is exact) but distinct cache entries.
	ks := testKey(t, Request{Op: "broadcast", P: 600, L: 6, O: 2, G: 4, K: 1, Constructor: "search"})
	kl := testKey(t, Request{Op: "broadcast", P: 600, L: 6, O: 2, G: 4, K: 1, Constructor: "logtime"})
	if ks == kl {
		t.Fatal("search and logtime canonicalized to the same key")
	}
	rs, _, err := c.Get(ks)
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := c.Get(kl)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Finish != rl.Finish {
		t.Fatalf("constructors disagree on makespan: search=%d logtime=%d", rs.Finish, rl.Finish)
	}
}

func TestSolveErrorMentionsOp(t *testing.T) {
	c := NewCache(1, 0, obs.NewRegistry())
	k := Key{Op: "nosuch", P: 4, L: 6, O: 2, G: 4}
	_, _, err := c.Get(k)
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v, want unknown-op error", err)
	}
}

// TestCacheKeepsOnlyWhatItCounts: a cached answer pins its exact-size JSON
// and a few numbers — no compiled schedule, no event slice — and the byte
// budget charges it cap(JSON) plus the fixed overhead.
func TestCacheKeepsOnlyWhatItCounts(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
			if f.Name != "JSON" {
				t.Errorf("Result.%s (%s) pins memory the budget does not count", f.Name, f.Type)
			}
		}
	}
	c := NewCache(1, 0, obs.NewRegistry())
	res, _, err := c.Get(testKey(t, Request{Op: "broadcast", P: 1000, L: 6, O: 2, G: 4, K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if cap(res.JSON) != len(res.JSON) {
		t.Fatalf("cached JSON has len %d cap %d, want exact size", len(res.JSON), cap(res.JSON))
	}
	if got, want := c.Stats()[0].Bytes, int64(cap(res.JSON))+entryOverhead; got != want {
		t.Fatalf("shard charges %d bytes, want cap(JSON)+%d = %d", got, entryOverhead, want)
	}
}
