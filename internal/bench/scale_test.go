package bench

import (
	"fmt"
	"sync"
	"syscall"
	"testing"

	"logpopt/internal/combine"
	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/runtime"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// Scale benchmarks: how fast the execution backends chew through events as P
// grows to the million-processor regime (ROADMAP item 3), reported as
// events/sec plus the process's peak RSS so `make bench-gate` can hold both
// throughput and memory footprint. Schedules are cached across b.Run
// re-invocations — constructing the P=1e6 broadcast takes seconds and must
// not be re-done every time the framework re-enters the closure to grow N.

var scaleCache sync.Map // key string -> cached *schedule.Schedule

func scaleBroadcast(p int) *schedule.Schedule {
	key := fmt.Sprintf("broadcast/%d", p)
	if s, ok := scaleCache.Load(key); ok {
		return s.(*schedule.Schedule)
	}
	s := core.BroadcastSchedule(logp.MustNew(p, 6, 2, 4), 0)
	scaleCache.Store(key, s)
	return s
}

func scaleReduce(p int) *schedule.Schedule {
	key := fmt.Sprintf("reduce/%d", p)
	if s, ok := scaleCache.Load(key); ok {
		return s.(*schedule.Schedule)
	}
	s := combine.ReduceSchedule(logp.Postal(p, 3), p)
	scaleCache.Store(key, s)
	return s
}

// peakRSSBytes reports the process's high-water resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux counts Maxrss in KiB (Darwin in bytes, but CI and the recorded
	// baselines are Linux).
	return float64(ru.Maxrss) * 1024
}

// reportScale attaches the shared scale metrics after a timed section:
// events/sec over the whole run and the peak RSS of the process.
func reportScale(b *testing.B, events int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/s, "events/sec")
	}
	b.ReportMetric(peakRSSBytes(), "peak_rss_bytes")
}

var scalePs = []int{1_000, 100_000, 1_000_000}

// BenchmarkScaleSimBroadcast replays the paper's optimal broadcast on one
// recycled simulator engine at P up to 1e6. The warm path must hold O(1)
// allocs/op regardless of P — that is the acceptance bar for the flight
// queue and slab reuse.
func BenchmarkScaleSimBroadcast(b *testing.B) {
	for _, p := range scalePs {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			s := scaleBroadcast(p)
			og := core.Origins(0)
			e := sim.New(s.M, sim.Strict)
			e.Replay(s, og) // warm: grow every slab once, off the clock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(s.M, sim.Strict)
				if rep := e.Replay(s, og); len(rep.Violations) != 0 {
					b.Fatal(rep.Violations[0])
				}
			}
			b.StopTimer()
			reportScale(b, len(s.Events))
		})
	}
}

// BenchmarkScaleSimReduce is the same sweep over the summation tree
// (reduction on a postal machine), the paper's other collective.
func BenchmarkScaleSimReduce(b *testing.B) {
	for _, p := range scalePs {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			s := scaleReduce(p)
			og := schedule.DerivedOrigins(s)
			e := sim.New(s.M, sim.Buffered)
			e.Replay(s, og) // warm: grow every slab once, off the clock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(s.M, sim.Buffered)
				if rep := e.Replay(s, og); len(rep.Violations) != 0 {
					b.Fatal(rep.Violations[0])
				}
			}
			b.StopTimer()
			reportScale(b, len(s.Events))
		})
	}
}

// BenchmarkScaleRuntimeBroadcast replays the broadcast on the worker-pool
// goroutine runtime. Handlers hold per-replay cursors, so each iteration
// rebuilds the runtime — allocs/op is O(P) here by design; the metric under
// gate is events/sec.
func BenchmarkScaleRuntimeBroadcast(b *testing.B) {
	for _, p := range scalePs {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			s := scaleBroadcast(p)
			og := core.Origins(0)
			horizon := runtime.Horizon(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := runtime.New(s.M, runtime.Strict, runtime.ReplayHandlers(s, og))
				if err != nil {
					b.Fatal(err)
				}
				rt.Run(horizon)
				if vs := rt.Violations(); len(vs) != 0 {
					b.Fatal(vs[0])
				}
			}
			b.StopTimer()
			reportScale(b, len(s.Events))
		})
	}
}
