package sim

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs/timeseries"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
)

// TestResetReplayEquivalence replays a batch of schedules twice — fresh
// engines via Run, and one recycled engine via Reset + Replay — and requires
// identical reports and executed schedules, in both reception modes.
func TestResetReplayEquivalence(t *testing.T) {
	type job struct {
		name    string
		mode    Mode
		build   func() (*scheduleWithOrigins, error)
		nonzero bool
	}
	broadcast := func(m logp.Machine) func() (*scheduleWithOrigins, error) {
		return func() (*scheduleWithOrigins, error) {
			return &scheduleWithOrigins{core.BroadcastSchedule(m, 0), core.Origins(0)}, nil
		}
	}
	greedy := func(l logp.Time, p, k int, mode kitem.Mode) func() (*scheduleWithOrigins, error) {
		return func() (*scheduleWithOrigins, error) {
			res, err := kitem.Greedy(l, p, k, mode)
			if err != nil {
				return nil, err
			}
			return &scheduleWithOrigins{res.Schedule, kitem.Origins(k)}, nil
		}
	}
	jobs := []job{
		{"broadcast-logp", Strict, broadcast(logp.MustNew(8, 6, 2, 4)), true},
		{"broadcast-postal", Strict, broadcast(logp.Postal(41, 3)), true},
		{"kitem-strict", Strict, greedy(3, 10, 6, kitem.Strict), true},
		{"kitem-buffered", Buffered, greedy(3, 10, 6, kitem.Buffered), true},
	}
	var recycled *Engine
	for _, j := range jobs {
		sw, err := j.build()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		eFresh, repFresh := Run(sw.s, j.mode, sw.origins)
		if recycled == nil {
			recycled = New(sw.s.M, j.mode)
		} else {
			recycled.Reset(sw.s.M, j.mode)
		}
		repRe := recycled.Replay(sw.s, sw.origins)
		if repFresh.Finish != repRe.Finish || repFresh.MaxBuffer != repRe.MaxBuffer ||
			len(repFresh.Violations) != len(repRe.Violations) {
			t.Errorf("%s: fresh report %+v, recycled report %+v", j.name, repFresh, repRe)
		}
		if j.nonzero && repFresh.Finish == 0 {
			t.Errorf("%s: finish 0, schedule did nothing", j.name)
		}
		exFresh, exRe := eFresh.Executed(), recycled.Executed()
		if !reflect.DeepEqual(exFresh.Events, exRe.Events) {
			t.Errorf("%s: executed schedules differ (fresh %d events, recycled %d events)",
				j.name, len(exFresh.Events), len(exRe.Events))
		}
	}
}

type scheduleWithOrigins struct {
	s       *schedule.Schedule
	origins map[int]schedule.Origin
}

// BenchmarkSimReplayFresh replays an optimal broadcast schedule on a fresh
// engine every iteration (the old Run path).
func BenchmarkSimReplayFresh(b *testing.B) {
	m := logp.MustNew(32, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	events0 := mEvents.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep := Run(s, Strict, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
	b.ReportMetric(float64(mEvents.Value()-events0)/float64(b.N), "events/op")
}

// BenchmarkSimReplayReuse replays the same schedule on one recycled engine
// (Reset + Replay), the allocation-free steady state.
func BenchmarkSimReplayReuse(b *testing.B) {
	m := logp.MustNew(32, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// BenchmarkSimReplayTimeseriesOff is the disabled-collector overhead gate:
// the engine with TS == nil must run within noise of an uninstrumented
// replay (the budget is < 2% — the hot loop pays one nil check per cycle).
// Compare against BenchmarkSimReplayReuse in BENCH_3.json.
func BenchmarkSimReplayTimeseriesOff(b *testing.B) {
	m := logp.MustNew(256, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	e.TS = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// BenchmarkSimReplayTimeseriesOn measures the collector's enabled cost with
// per-cycle sampling — the worst case; windowed sampling is strictly
// cheaper.
func BenchmarkSimReplayTimeseriesOn(b *testing.B) {
	m := logp.MustNew(256, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	og := core.Origins(0)
	e := New(m, Strict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TS = timeseries.New(64)
		e.Reset(m, Strict)
		rep := e.Replay(s, og)
		if len(rep.Violations) != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// TestReplayAllocs pins cold-replay sizing: a fresh engine sizes every slab
// from the schedule before the run starts, so New + Replay makes the same
// number of allocations at P = 1e3 and P = 1e4 — for broadcast, whose
// processors hold one item, and for scan, whose processors hold several.
func TestReplayAllocs(t *testing.T) {
	// A GC cycle allocates for its own bookkeeping, and its allocations
	// would land in whichever measurement it falls into; so the collector
	// runs before each measurement and not during one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, op := range []string{"broadcast", "scan"} {
		allocs := func(p int) float64 {
			comp, err := sched.Compile(logp.MustNew(p, 6, 2, 4), op, 1, 0, logtime.Tree)
			if err != nil {
				t.Fatal(err)
			}
			og := schedule.DerivedOrigins(comp.S)
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				if _, rep := Run(comp.S, Strict, og); len(rep.Violations) != 0 {
					t.Fatalf("%s P=%d: %v", op, p, rep.Violations[0])
				}
			})
		}
		small, large := allocs(1_000), allocs(10_000)
		if small != large {
			t.Fatalf("%s: a fresh replay allocates %v times at P=1e3 and %v at P=1e4; want a count independent of P", op, small, large)
		}
		t.Logf("%s: %v allocations per fresh replay at any P", op, small)
	}
}
