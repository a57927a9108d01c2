package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/serve/sched"
)

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 12)
		c, _ := generate(w, 8, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
		if len(a) < 20 {
			t.Errorf("%s: %d operations, want at least 20", w, len(a))
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	ops, _ := generate(serveCold, 3, 12)
	seen := map[sched.Key]bool{}
	for _, op := range ops {
		k := keyOf(op.Req)
		if seen[k] {
			t.Fatalf("key %s repeats", k)
		}
		seen[k] = true
	}
}

func TestSeedOnlyReorders(t *testing.T) {
	for _, w := range []string{serveCold, cliCertify, cliConform} {
		a, _ := generate(w, 7, 12)
		b, _ := generate(w, 8, 12)
		count := map[Op]int{}
		for i := range a {
			count[a[i]]++
			count[b[i]]--
		}
		for op, c := range count {
			if c != 0 {
				t.Fatalf("%s: seeds 7 and 8 run %+v a different number of times", w, op)
			}
		}
	}
}

func TestCalibrationFactors(t *testing.T) {
	slow := calTimes{wall: []float64{104, 300, 104}, cpu: []float64{112}}
	if w, c := slow.factors(); w != 0.5 || c != 0.5 {
		t.Errorf("perfcal at twice the reference times: factors %v, %v, want 0.5, 0.5", w, c)
	}
	if w, c := (calTimes{}).factors(); w != 1 || c != 1 {
		t.Errorf("no perfcal runs: factors %v, %v, want 1, 1", w, c)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, q int }{
		{10, 0}, {11, 9}, {20, 50}, {28, 64}, {100, 90}, {420, 97}, {1000, 99}, {2400, 99},
	} {
		if got := tailPercentile(c.n); got != c.q {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.q)
		}
	}
	// The rule itself: at least ten samples beyond the chosen rank, and
	// fewer than ten beyond the next percentile's.
	for n := 11; n <= 3000; n++ {
		q := tailPercentile(n)
		rank := func(q int) int { return (q*n + 99) / 100 }
		if n-rank(q) < 10 {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, q, n-rank(q))
		}
		if q < 99 && n-rank(q+1) >= 10 {
			t.Fatalf("n=%d: p%d also has ten samples beyond it", n, q+1)
		}
	}
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := percentile(xs, tailPercentile(len(xs))); got != 10 {
		t.Errorf("tail of 1..20 = %v, want 10 (p50, ten samples beyond)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCRCRejectsOneByteCorruption(t *testing.T) {
	req := sched.Request{Op: "broadcast", P: 64, L: 6, O: 2, G: 4, K: 1}
	want, err := reference(req)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, _ := logtime.Select("auto", req.P)
	c, err := sched.Compile(logp.Machine{P: req.P, L: req.L, O: req.O, G: req.G}, req.Op, req.K, req.Deadline, tb)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := c.S.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	good := body.Bytes()
	var serve []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(serve) }))
	defer srv.Close()
	buf := make([]byte, 1024)
	serve = good
	if s := fetch(srv.Client(), srv.URL, want, buf); !s.ok {
		t.Fatalf("the exact bytes failed the check: %s", s.error)
	}
	for _, at := range []int{0, len(good) / 2, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x01
		serve = bad
		if s := fetch(srv.Client(), srv.URL, want, buf); s.ok {
			t.Errorf("a one-byte corruption at offset %d passed the check", at)
		}
	}
	serve = good[:len(good)-1]
	if s := fetch(srv.Client(), srv.URL, want, buf); s.ok {
		t.Error("a truncated body passed the check")
	}
}

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "op", start: 0, dur: 100 * ms},
		{id: 2, parent: 1, name: "a", start: 10 * ms, dur: 20 * ms},
		{id: 3, parent: 2, name: "a.child", start: 12 * ms, dur: 5 * ms},
		{id: 4, parent: 1, name: "b", start: 40 * ms, dur: 30 * ms},
		{id: 5, parent: 4, name: "b.x", start: 45 * ms, dur: 10 * ms},
		{id: 6, parent: 4, name: "b.y", start: 50 * ms, dur: 10 * ms}, // overlaps b.x by 5
		{id: 7, parent: 4, name: "b.z", start: 65 * ms, dur: 10 * ms}, // sticks out of b by 5
	}
	want := []time.Duration{50 * ms, 15 * ms, 5 * ms, 30*ms - 15*ms - 5*ms, 10 * ms, 10 * ms, 10 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	// Through the recorder: a parent's self time is its duration minus
	// its direct children's.
	r := newRecorder()
	p := r.begin(0, 0, "op")
	c := r.begin(0, p, "child")
	time.Sleep(2 * ms)
	r.end(c)
	time.Sleep(ms)
	r.end(p)
	self := selfTimes(r.spans)
	if self[0] != r.spans[0].dur-r.spans[1].dur || self[1] != r.spans[1].dur {
		t.Errorf("recorded spans %+v: self %v", r.spans, self)
	}
}

func TestLRUModelMatchesCache(t *testing.T) {
	// Small schedules and a budget a few of them overflow, so evictions
	// happen in every shard; the model must call every hit and miss the
	// real cache does.
	var set []sched.Request
	for _, p := range []int{600, 900, 1300, 1900, 2700, 4000} {
		for _, op := range []string{"broadcast", "scan"} {
			set = append(set, sched.Request{Op: op, P: p, L: 6, O: 2, G: 4, K: 1})
		}
	}
	refs, err := references(set)
	if err != nil {
		t.Fatal(err)
	}
	const shards, budget = 4, 4 << 20
	cache := sched.NewCache(shards, budget, obs.NewRegistry())
	model := newLRUModel(shards, budget)
	seq := hotSequence(rand.New(rand.NewSource(5)), 300, set)
	hits := 0
	for i, op := range seq {
		k := keyOf(op.Req)
		var n int64
		for j, r := range set {
			if r == op.Req {
				n = refs[j].n
			}
		}
		_, out, err := cache.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := model.get(k, n); got != (out == sched.Hit) {
			t.Fatalf("request %d (%s): model hit=%v, cache %s", i, k, got, out)
		}
		if out == sched.Hit {
			hits++
		}
	}
	if hits == 0 || hits == len(seq) {
		t.Fatalf("%d hits of %d: the budget should make some but not all requests hit", hits, len(seq))
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
