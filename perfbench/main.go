// Command perfbench is the repository's end-to-end benchmark. It drives the
// real logpservd, logpsched and logpconform binaries from one load
// generator, checks every answer, and prints one JSON result line:
//
//	perfbench --workload serve-cold --seed 1 --seconds 12 --trace 0
//
// The four workloads are serve-cold (distinct /v1/schedule keys, so every
// request compiles and encodes), serve-hot (a Zipf stream over a hot set
// that fits the cache budget but not every shard's share of it),
// cli-certify (logpsched -report runs) and cli-conform (logpconform runs
// with scale cases). Each run issues a fixed, seeded sequence of operations
// whose length depends only on --seconds, so runs do identical work.
//
// Every end-to-end time is scaled to a reference host speed, measured by
// running the benchmark's own perfcal kernel between operations; see
// calib.go.
//
// --trace 1 additionally replays the same operations in-process, timing
// the calls into each layer's public functions, and reports the per-layer
// metrics instead of the end-to-end ones; the spans are written as a
// Perfetto trace under -work and a self-time table goes to stderr.
//
// -repeat N runs a workload (or -workload all) N times with consecutive
// seeds and prints each end-to-end metric's median and quartile spread;
// -props prints the properties the workload was chosen for.
//
// perfbench/run.sh builds the binaries from the checkout and runs this
// command with the arguments it was given; see perfbench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one run, set-up and traced replay included; past it
// every child is killed and the run fails.
const runDeadline = 170 * time.Second

// benchEnv says where the binaries under test are and where runs may write.
type benchEnv struct {
	binDir, work string
}

func (e *benchEnv) bin(name string) string { return filepath.Join(e.binDir, name) }

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (or all, with -repeat)")
		seed     = fs.Int64("seed", 1, "seed of the operation sequence")
		seconds  = fs.Int("seconds", 12, "run length: the operation count is fixed by it")
		traced   = fs.Int("trace", 0, "1: also replay the operations in-process with per-layer spans and report the per-layer metrics")
		binDir   = fs.String("bin", filepath.Join(".bench_build", "bin"), "`dir`ectory holding the logpservd, logpsched and logpconform binaries")
		work     = fs.String("work", filepath.Join(".bench_build", "run"), "scratch `dir`ectory for addresses, reports and traces")
		repeat   = fs.Int("repeat", 0, "run the workload `N` times with consecutive seeds and print each end-to-end metric's median and spread")
		props    = fs.Bool("props", false, "print the workload's properties for the seed and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	switch {
	case *seconds < 1:
		return fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	case *traced != 0 && *traced != 1:
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	env := &benchEnv{binDir: *binDir, work: *work}
	if *repeat > 0 {
		return repeatRuns(env, *workload, *seed, *seconds, *repeat, stdout, stderr)
	}
	ops, err := generate(*workload, *seed, *seconds)
	if err != nil {
		return fail(err)
	}
	if *props {
		if err := writeProps(stdout, *workload, *seed, ops); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, b := range []string{"logpservd", "logpsched", "logpconform", "perfcal"} {
		if _, err := os.Stat(env.bin(b)); err != nil {
			return fail(fmt.Errorf("binary under test missing (build it with perfbench/run.sh): %w", err))
		}
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return fail(err)
	}

	// Whatever happens, no child outlives the run.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v; stopping\n", runDeadline)
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runOnce(env, *workload, *seed, ops, *traced == 1, stderr)
	if err != nil {
		killChildren()
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOnce measures one run of a workload and assembles its result line.
func runOnce(env *benchEnv, workload string, seed int64, ops []Op, traced bool, stderr io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metricOut{}}
	e2e := map[string]float64{}
	layer := map[string]float64{}
	var samples []sample
	var window time.Duration
	var setups []time.Duration
	var errs []string
	var tr *tracedRun
	var basis []float64 // each operation's end-to-end time (ms) the layer share is taken of
	cal := &calibrator{bin: env.bin("perfcal")}
	switch workload {
	case serveCold, serveHot:
		sr, err := runServe(env, workload, seed, ops, cal)
		if err != nil {
			return nil, err
		}
		samples, window, setups, errs = sr.samples, sr.window, sr.setups, sr.errors
		if workload == serveHot {
			res.Attempted += len(hotSet()) * setupsPerRun[serveHot] // checked prefill answers
		}
		e2e["cpu_ms_per_op"] = ms(sr.cpu) / float64(max(completed(samples), 1))
		e2e["peak_rss_mb"] = float64(sr.hwm) / 1e6
		var ttfb, xfer []float64
		basis = make([]float64, len(samples))
		for i, s := range samples {
			if s.done {
				ttfb, xfer = append(ttfb, ms(s.ttfb)), append(xfer, ms(s.xfer))
				basis[i] = ms(s.ttfb)
			}
		}
		layer["client.ttfb_ms"], layer["client.transfer_ms"] = median(ttfb), median(xfer)
		hits := sr.after.Hits - sr.before.Hits
		gets := hits + sr.after.Misses - sr.before.Misses + sr.after.Coalesced - sr.before.Coalesced
		if gets > 0 {
			layer["sched.cache.hit_ratio"] = float64(hits) / float64(gets)
		}
		layer["sched.cache.evictions"] = float64(sr.after.Evictions - sr.before.Evictions)
		layer["sched.cache.bytes"] = float64(sr.after.Bytes)
		if workload == serveHot {
			set := hotSet()
			sizes := make([]int64, len(set))
			for i, r := range set {
				sizes[i] = sr.refOf[r].n
			}
			fmt.Fprintf(stderr, "serve-hot: hit ratio %.4f, predicted %.4f by the cache model\n",
				layer["sched.cache.hit_ratio"], predictHitRatio(seed, set, sizes, ops))
		}
		if traced {
			tr = traceServe(workload, ops, sr.refOf)
		}
	case cliCertify, cliConform:
		cr := runCLI(env, workload, ops, cal)
		samples, window, setups, errs = cr.samples, cr.window, cr.setups, cr.errors
		res.Attempted += cliWarmups
		var cpu time.Duration
		var rss int64
		walls := make([]time.Duration, len(samples))
		for i, s := range samples {
			cpu += s.cpu
			rss = max(rss, s.rss)
			walls[i] = s.lat
			if s.done {
				basis = append(basis, ms(s.lat))
			} else {
				basis = append(basis, 0)
			}
		}
		e2e["cpu_ms_per_op"] = ms(cpu) / float64(max(completed(samples), 1))
		e2e["peak_rss_mb"] = float64(rss) / 1e6
		switch {
		case traced && workload == cliCertify:
			tr = traceCertify(env, ops, walls)
		case traced:
			tr = traceConform(ops)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	var lats []float64
	ok := 0
	for _, s := range samples {
		if s.done {
			lats = append(lats, ms(s.lat))
		}
		if s.ok {
			ok++
		} else {
			errs = append(errs, s.error)
		}
	}
	q := tailPercentile(len(samples))
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	e2e["setup_s"] = median(setupS)
	e2e["p50_ms"] = median(lats)
	e2e["tail_ms"] = percentile(lats, q)
	e2e["ops_per_s"] = float64(ok) / window.Seconds()
	fmt.Fprintf(stderr, "raw: setup_s %.4f  p50_ms %.3f  tail_ms %.3f  ops_per_s %.3f  cpu_ms_per_op %.3f\n",
		e2e["setup_s"], e2e["p50_ms"], e2e["tail_ms"], e2e["ops_per_s"], e2e["cpu_ms_per_op"])
	fs, _ := cal.setup.factors()
	fw, fc := cal.window.factors()
	fmt.Fprintf(stderr, "perfcal: set-up %d runs, median wall %.2f ms, scaling setup_s by %.4f; window %d runs, median wall %.2f ms, cpu %.2f ms, scaling wall times by %.4f, CPU times by %.4f\n",
		len(cal.setup.wall), median(cal.setup.wall), fs, len(cal.window.wall), median(cal.window.wall), median(cal.window.cpu), fw, fc)
	e2e["setup_s"] *= fs
	e2e["p50_ms"] *= fw
	e2e["tail_ms"] *= fw
	e2e["ops_per_s"] /= fw
	e2e["cpu_ms_per_op"] *= fc
	if len(cal.errors) > 0 {
		return nil, fmt.Errorf("%s (%d calibration runs failed)", cal.errors[0], len(cal.errors))
	}
	res.Attempted += len(samples)
	if tr != nil {
		for k, v := range layerMetrics(workload, tr, basis) {
			layer[k] = v
		}
		res.Attempted += tr.nops
		errs = append(errs, tr.errors...)
	}
	res.Failed = len(errs)
	res.Correct = res.Failed == 0

	fmt.Fprintf(stderr, "perfbench %s seed %d: %d operations in %.2f s, tail = p%d, %d failed\n",
		workload, seed, len(samples), window.Seconds(), q, res.Failed)
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(stderr, "  … %d more failures\n", len(errs)-5)
			break
		}
		fmt.Fprintf(stderr, "  FAILED: %s\n", e)
	}
	defs, vals := endToEnd, e2e
	if traced {
		defs, vals = perLayer, layer
		path := filepath.Join(env.work, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
		if err := writePerfetto(path, workload, tr.rec.spans); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		writeSelfTable(stderr, workload, tr.rec.spans, tr.nops, tr.derived)
		fmt.Fprintf(stderr, "spans: %s; tracing overhead %.1f%% on the first %d operations\n",
			path, layer["trace.overhead_pct"], min(overheadOps, tr.nops))
		fmt.Fprintf(stderr, "layer self times account for %.1f%% of an operation's %s (median over operations)\n",
			layer["trace.layer_share_pct"], basisName[workload])
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(stderr, "  %-28s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	return res, nil
}

// basisName names the end-to-end time trace.layer_share_pct is a share of.
var basisName = map[string]string{
	serveCold:  "time to first byte (client.ttfb_ms)",
	serveHot:   "time to first byte (client.ttfb_ms)",
	cliCertify: "wall time (p50_ms)",
	cliConform: "wall time (p50_ms)",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func completed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.done {
			n++
		}
	}
	return n
}

// repeatRuns runs each selected workload n times as separate processes,
// with seeds seed … seed+n-1, and prints every end-to-end metric's median,
// quartiles and spread, flagging a spread over a tenth of the median.
func repeatRuns(env *benchEnv, workload string, seed int64, seconds, n int, stdout, stderr io.Writer) int {
	list := []string{workload}
	if workload == "all" {
		list = workloads
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range list {
		vals := map[string][]float64{}
		for r := 0; r < n; r++ {
			s := seed + int64(r)
			res, err := childRun(self, env, w, s, seconds)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w, s, err)
				status = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %d of %d operations failed\n", w, s, res.Failed, res.Attempted)
				status = 1
			}
			fmt.Fprintf(stderr, "%s seed %d:", w, s)
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				vals[d.name] = append(vals[d.name], v)
				fmt.Fprintf(stderr, " %s=%.4g", d.name, v)
			}
			fmt.Fprintln(stderr)
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, --seconds %d\n", w, n, seed, seed+int64(n)-1, seconds)
		fmt.Fprintf(stdout, "  %-16s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, d := range endToEnd {
			v := vals[d.name]
			q1, q3 := quartiles(v)
			flag := ""
			if spread(v) > 0.1 {
				flag = "  SPREAD > 0.10"
			}
			fmt.Fprintf(stdout, "  %-16s %12.4f %12.4f %12.4f %7.3f%s  (%s)\n", d.name, median(v), q1, q3, spread(v), flag, d.unit)
		}
	}
	return status
}

// childRun runs one untraced run in a child process and parses its result
// line.
func childRun(self string, env *benchEnv, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-bin", env.binDir, "-work", env.work)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	if err := reap(cmd); err != nil {
		return nil, fmt.Errorf("%v: %s", err, lastLine(errb.String()))
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
