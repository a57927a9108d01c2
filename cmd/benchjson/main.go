// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a JSON array on stdout, one object per benchmark result:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson > BENCH_1.json
//
// Each object carries the benchmark name (with the -N GOMAXPROCS suffix
// stripped into its own field), iteration count, ns/op, the total measured
// wall time in seconds (iterations x ns/op), and — when -benchmem was on —
// B/op and allocs/op. Any other (value, unit) pair a benchmark reported via
// b.ReportMetric (nodes/op, memohits/op, events/sec, peak_rss_bytes, ...)
// lands verbatim in the "extra" map. Lines that are not benchmark results
// are ignored, so the full `go test` output can be piped in unfiltered. A
// benchmark that appears twice is an error, not a second entry.
//
// GOMAXPROCS handling: go test appends "-N" to a result's name only when it
// ran with GOMAXPROCS=N != 1, and benchmark names themselves may end in
// "-<digits>" (sub-benchmark cases), so a bare LastIndex strip misattributes
// those digits as a processor count and records parallel runs under the
// serial default. benchjson therefore only strips a trailing "-N" when N
// matches the GOMAXPROCS the `go test` run actually used — its own
// runtime.GOMAXPROCS, overridable with -gomaxprocs when converting output
// recorded elsewhere.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"logpopt/internal/benchcmp"
)

// result is the record benchcmp reads back; its Key is the identity a
// duplicate would shadow.
type result = benchcmp.Result

// parseLine converts one benchmark result line. procs is the GOMAXPROCS the
// run used: a trailing "-procs" on the name is the framework's suffix and is
// stripped; any other trailing "-<digits>" belongs to the benchmark's own
// name (a sub-benchmark case) and is kept, with the run recorded as serial —
// go test only omits the suffix when GOMAXPROCS was 1.
func parseLine(line string, procs int) (result, bool) {
	var r result
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return r, false
	}
	name := fields[0]
	r.GoMaxProcs = 1
	if suffix := fmt.Sprintf("-%d", procs); procs != 1 && strings.HasSuffix(name, suffix) {
		r.GoMaxProcs = procs
		name = strings.TrimSuffix(name, suffix)
	}
	r.Name = name
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return r, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs: ns/op, B/op, allocs/op.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	r.WallS = float64(r.Iterations) * r.NsPerOp / 1e9
	return r, r.NsPerOp > 0
}

// parse reads `go test -bench` output and returns its results in order.
// It refuses a benchmark recorded twice (same package, name and
// GOMAXPROCS): benchcmp keys results by that triple, so the second entry
// would silently shadow the first.
func parse(in io.Reader, procs int) ([]result, error) {
	results := []result{} // encode as [], not null, when nothing matched
	seen := map[string]bool{}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if r, ok := parseLine(line, procs); ok {
			r.Package = pkg
			key := r.Key()
			if seen[key] {
				return nil, fmt.Errorf("benchmark %s recorded twice (do two -bench patterns match it?)", key)
			}
			seen[key] = true
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

func main() {
	procs := flag.Int("gomaxprocs", runtime.GOMAXPROCS(0),
		"GOMAXPROCS the benchmark run used (the \"-N\" name suffix go test appends); defaults to this process's value, override when converting output recorded on another machine")
	flag.Parse()
	results, err := parse(os.Stdin, *procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
