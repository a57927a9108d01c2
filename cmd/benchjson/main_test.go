package main

import (
	"strings"
	"testing"
)

const benchOut = `goos: linux
pkg: logpopt/internal/bench
BenchmarkServdBatchSweep-2   	    9404	    121634 ns/op	   30036 B/op	     331 allocs/op	    263085 req/sec
BenchmarkSweepParallel-2     	     100	     50000 ns/op
pkg: logpopt/internal/sim
BenchmarkServdBatchSweep-2   	   11848	    101844 ns/op
PASS
`

func TestParseKeepsOneEntryPerKey(t *testing.T) {
	rs, err := parse(strings.NewReader(benchOut), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The same name in another package is a different benchmark.
	if len(rs) != 3 {
		t.Fatalf("%d results, want 3: %+v", len(rs), rs)
	}
	if r := rs[0]; r.Name != "BenchmarkServdBatchSweep" || r.GoMaxProcs != 2 || r.AllocsOp != 331 || r.Extra["req/sec"] != 263085 {
		t.Fatalf("first result %+v", r)
	}
	if rs, err := parse(strings.NewReader(""), 2); err != nil || rs == nil || len(rs) != 0 {
		t.Fatalf("empty input: %v, %v; want an empty, non-nil slice", rs, err)
	}
}

func TestParseRefusesDuplicates(t *testing.T) {
	// Two -bench patterns matching one benchmark record it twice in one
	// package; the second entry would shadow the first downstream.
	dup := "pkg: logpopt/internal/bench\n" +
		"BenchmarkServdBatchSweep-2   	    9404	    121634 ns/op	   30036 B/op	     331 allocs/op\n" +
		"BenchmarkServdBatchSweep-2   	   11848	    101844 ns/op\n"
	_, err := parse(strings.NewReader(dup), 2)
	if err == nil || !strings.Contains(err.Error(), "logpopt/internal/bench.BenchmarkServdBatchSweep-2") {
		t.Fatalf("err = %v, want a duplicate-benchmark error naming the key", err)
	}
	// The same benchmark at another GOMAXPROCS (-cpu 1,2) is a distinct key.
	cpus := "pkg: p\nBenchmarkX   	10	100 ns/op\nBenchmarkX-2   	10	100 ns/op\n"
	if rs, err := parse(strings.NewReader(cpus), 2); err != nil || len(rs) != 2 {
		t.Fatalf("-cpu 1,2: %d results, err %v; want 2 and nil", len(rs), err)
	}
}
