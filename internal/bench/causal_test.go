package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs/causal"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
)

var analyzeSink *causal.Report

// BenchmarkCausalAnalyze runs the causal critical-path analyzer — the
// largest layer of `logpsched -report` — on the P=1e5 broadcast and scan
// schedules sched.Compile builds, reporting events/sec over the analyzed
// events. The collector runs between iterations, off the clock, and not
// inside one: in a binary that links net/http every GC cycle allocates for
// its own bookkeeping, which would make allocs/op drift with the number of
// cycles an iteration happens to start. So allocs/op is Analyze's own
// count, independent of P (the causal package's TestAnalyzeAllocs pins
// that), and bench-gate can hold it exactly; ns/op leaves out the
// collection of each iteration's garbage (65 MB for broadcast).
func BenchmarkCausalAnalyze(b *testing.B) {
	m := logp.Machine{P: 100_000, L: 6, O: 2, G: 4}
	for _, op := range []string{"broadcast", "scan"} {
		b.Run(op, func(b *testing.B) {
			comp, err := sched.Compile(m, op, 1, 0, logtime.Tree)
			if err != nil {
				b.Fatal(err)
			}
			og := schedule.DerivedOrigins(comp.S)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.Gosched() // let the cycle's cleanup run off the clock
				b.StartTimer()
				analyzeSink = causal.Analyze(comp.S, og)
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(len(comp.S.Events))*float64(b.N)/s, "events/sec")
			}
		})
	}
}
