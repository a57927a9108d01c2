package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"logpopt/internal/obs/report"
	"logpopt/internal/serve/sched"
)

// cliResult is what an untraced CLI run measured.
type cliResult struct {
	samples []sample
	window  time.Duration
	setups  []time.Duration
	errors  []string // warm-up failures
}

// cliWarmups is how many untimed warm-up invocations a CLI run makes before
// its window; setup_s is their median wall time.
const cliWarmups = 5

// warmupOp is the fixed invocation a CLI workload warms up with: its
// smallest operation, the same for every seed.
func warmupOp(workload string) Op {
	if workload == cliConform {
		return Op{Seeds: conformSeeds, Start: 0, Scale: 1000}
	}
	return Op{Req: sched.Request{Op: "broadcast", P: 10000, L: 6, O: 2, G: 4, K: 1}}
}

// runCLI runs one CLI workload: warm-ups, then every operation in order,
// one child at a time, each checked as it exits. A calibration run precedes
// every invocation; the window leaves those out.
func runCLI(env *benchEnv, workload string, ops []Op, cal *calibrator) *cliResult {
	res := &cliResult{}
	for i := 0; i < cliWarmups; i++ {
		cal.sample(&cal.setup)
		s := runOp(env, workload, warmupOp(workload))
		if !s.ok {
			res.errors = append(res.errors, "warm-up: "+s.error)
		}
		res.setups = append(res.setups, s.lat)
	}
	res.samples = make([]sample, len(ops))
	var calTime time.Duration
	start := time.Now()
	for i, op := range ops {
		calTime += cal.sample(&cal.window)
		res.samples[i] = runOp(env, workload, op)
	}
	res.window = time.Since(start) - calTime
	return res
}

// runOp runs one CLI invocation and checks its output: a logpconform run
// must exit 0; a logpsched run must leave a report that reads back through
// report.Read with no violations, for the machine and op asked, and — for
// broadcast and reduce, which the paper proves optimal — a finish equal to
// the bound.
func runOp(env *benchEnv, workload string, op Op) sample {
	bin, args := env.bin("logpsched"), op.CLIArgs()
	reportPath := filepath.Join(env.work, "report.json")
	if workload == cliConform {
		bin = env.bin("logpconform")
	} else {
		os.Remove(reportPath) //nolint:errcheck // a stale report must not pass
		args = append(args, "-report", reportPath)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // stdout (a schedule, or the case log) goes to /dev/null
	start := time.Now()
	if err := startChild(cmd); err != nil {
		return sample{error: err.Error()}
	}
	err := reap(cmd)
	s := sample{lat: time.Since(start), done: true}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rss = ru.Maxrss << 10 // kilobytes on Linux
	}
	if err != nil {
		s.error = fmt.Sprintf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.String()))
		return s
	}
	if workload == cliCertify {
		if err := checkReport(reportPath, op); err != nil {
			s.error = err.Error()
			return s
		}
	}
	s.ok = true
	return s
}

// checkReport is cli-certify's output check.
func checkReport(path string, op Op) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r, err := report.Read(data)
	if err != nil {
		return err
	}
	req := op.Req
	switch {
	case r.Op != req.Op || r.Machine.P != req.P || r.Machine.L != int64(req.L) ||
		r.Machine.O != int64(req.O) || r.Machine.G != int64(req.G):
		return fmt.Errorf("report is for %s on %+v, asked %s P=%d L=%d o=%d g=%d",
			r.Op, r.Machine, req.Op, req.P, req.L, req.O, req.G)
	case r.Violations != 0:
		return fmt.Errorf("%s P=%d: %d violations", req.Op, req.P, r.Violations)
	case (req.Op == "broadcast" || req.Op == "reduce") && r.Finish != r.Bound:
		return fmt.Errorf("%s P=%d: finish %d != bound %d", req.Op, req.P, r.Finish, r.Bound)
	}
	return nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
