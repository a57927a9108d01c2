package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"logpopt/internal/serve/sched"
)

// serveClients is the closed loop's width: one client per core of the
// 2-core machine the benchmark is sized for, each with one keep-alive
// connection, all in this process.
const serveClients = 2

// daemon is one logpservd process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	start   time.Time
	stopped bool
}

// startDaemon spawns logpservd with its default flags apart from an
// ephemeral address written to a file in dir. Its request log goes to
// stderr, one line per request; os/exec drains it so the pipe never fills.
func startDaemon(bin, dir string, n int) (*daemon, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("servd-%d.addr", n))
	os.Remove(addrFile) //nolint:errcheck // absent is the normal case
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	d := &daemon{cmd: cmd, start: time.Now()}
	if err := startChild(cmd); err != nil {
		return nil, fmt.Errorf("starting logpservd: %w", err)
	}
	deadline := d.start.Add(60 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && strings.HasSuffix(string(b), "\n") {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // the timeout is the error to report
			return nil, fmt.Errorf("logpservd wrote no address to %s within 60s", addrFile)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady() error {
	c := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("logpservd not ready within 60s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the daemon
// if it has not exited after ten seconds.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	t := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() }) //nolint:errcheck
	defer t.Stop()
	if err := reap(d.cmd); err != nil {
		return fmt.Errorf("logpservd exit: %w", err)
	}
	return nil
}

// cacheTotals is the totals row of /debug/cache.
type cacheTotals struct {
	Hits, Misses, Coalesced, Evictions, Bytes int64
}

func (d *daemon) cacheStats() (cacheTotals, error) {
	resp, err := http.Get(d.base + "/debug/cache")
	if err != nil {
		return cacheTotals{}, err
	}
	defer resp.Body.Close()
	var doc struct {
		Totals cacheTotals `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return cacheTotals{}, fmt.Errorf("decoding /debug/cache: %w", err)
	}
	return doc.Totals, nil
}

// sample is one timed operation.
type sample struct {
	lat   time.Duration // sent to last byte checked (serve) or spawn to exit (CLI)
	ttfb  time.Duration // serve only: sent to first response byte
	xfer  time.Duration // serve only: first to last body byte
	cpu   time.Duration // CLI only: child user+system CPU
	rss   int64         // CLI only: child peak RSS, bytes
	done  bool          // the operation completed (answered or exited)
	ok    bool          // and passed its check
	error string
}

// calSegments is how many stretches a serve window is cut into; a
// calibration run, with the daemon idle, precedes each.
const calSegments = 16

// calibratedWindow runs urls through window in calSegments consecutive
// stretches with a calibration run before each, and returns the samples and
// the stretches' total length.
func calibratedWindow(urls []string, want []ref, cal *calibrator) ([]sample, time.Duration) {
	var samples []sample
	var total time.Duration
	seg := (len(urls) + calSegments - 1) / calSegments
	for i := 0; i < len(urls); i += seg {
		j := min(i+seg, len(urls))
		cal.sample(&cal.window)
		s, d := window(urls[i:j], want[i:j])
		samples, total = append(samples, s...), total+d
	}
	return samples, total
}

// window runs urls through a closed loop of serveClients clients, checking
// every body against want, and returns one sample per request and the
// window's length.
func window(urls []string, want []ref) ([]sample, time.Duration) {
	samples := make([]sample, len(urls))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 120 * time.Second}
			buf := make([]byte, 256<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(urls) {
					return
				}
				samples[i] = fetch(client, urls[i], want[i], buf)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// fetch issues one GET and checks the body's CRC-32C as it streams in.
func fetch(client *http.Client, u string, want ref, buf []byte) sample {
	var first time.Time
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return sample{error: err.Error()}
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{error: err.Error()}
	}
	var w crcWriter
	_, err = io.CopyBuffer(&w, resp.Body, buf)
	resp.Body.Close()
	end := time.Now()
	s := sample{lat: end.Sub(start), ttfb: first.Sub(start), xfer: end.Sub(first), done: err == nil}
	switch {
	case err != nil:
		s.error = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.error = fmt.Sprintf("status %d", resp.StatusCode)
	default:
		if cerr := want.check(w.sum()); cerr != nil {
			s.error = cerr.Error()
		} else {
			s.ok = true
		}
	}
	return s
}

// serveResult is what an untraced serve run measured.
type serveResult struct {
	samples []sample
	window  time.Duration
	setups  []time.Duration
	cpu     time.Duration
	hwm     int64
	before  cacheTotals
	after   cacheTotals
	errors  []string // set-up failures (prefill checks)
	refOf   map[sched.Request]ref
}

// setupsPerRun is how many fresh daemons a serve run sets up; setup_s is
// their median, and the last one serves the timed window.
var setupsPerRun = map[string]int{serveCold: 9, serveHot: 3}

// runServe measures one serve workload against fresh logpservd processes,
// calibrating before each set-up and each stretch of the window.
// The references are computed (or read from the store) first, before any
// daemon runs, so they cost nothing inside set-up or the window.
func runServe(env *benchEnv, workload string, seed int64, ops []Op, cal *calibrator) (*serveResult, error) {
	var reqs []sched.Request
	if workload == serveHot {
		reqs = hotSet()
	} else {
		for _, op := range ops {
			reqs = append(reqs, op.Req)
		}
	}
	refs, err := storedReferences(env.work, reqs)
	if err != nil {
		return nil, err
	}
	refOf := make(map[sched.Request]ref, len(reqs))
	for i, r := range reqs {
		refOf[r] = refs[i]
	}
	// The references leave gigabytes of garbage; collect it now so this
	// process's GC does not compete with the daemon during the window.
	debug.FreeOSMemory()

	res := &serveResult{refOf: refOf}
	var d *daemon
	for n := 0; n < setupsPerRun[workload]; n++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		cal.sample(&cal.setup) // no daemon runs
		if d, err = startDaemon(env.bin("logpservd"), env.work, n); err != nil {
			return nil, err
		}
		if err := d.waitReady(); err != nil {
			d.stop() //nolint:errcheck // the readiness failure is the error
			return nil, err
		}
		if workload == serveHot {
			// Prefill: every hot key once, in a seeded order, through the
			// same closed loop, checked like any other answer.
			order := prefillOrder(seed, n, len(reqs))
			pu, pw := make([]string, len(reqs)), make([]ref, len(reqs))
			for i, j := range order {
				pu[i], pw[i] = Op{Req: reqs[j]}.URL(d.base), refs[j]
			}
			ps, _ := window(pu, pw)
			for _, s := range ps {
				if !s.ok {
					res.errors = append(res.errors, "prefill: "+s.error)
				}
			}
		}
		res.setups = append(res.setups, time.Since(d.start))
	}
	defer d.stop() //nolint:errcheck // a no-op after the explicit stop below

	urls, want := make([]string, len(ops)), make([]ref, len(ops))
	for i, op := range ops {
		urls[i], want[i] = op.URL(d.base), refOf[op.Req]
	}
	pid := d.cmd.Process.Pid
	if res.before, err = d.cacheStats(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res.samples, res.window = calibratedWindow(urls, want, cal)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.after, err = d.cacheStats(); err != nil {
		return nil, err
	}
	if res.hwm, err = procHWM(pid); err != nil {
		return nil, err
	}
	return res, d.stop()
}
