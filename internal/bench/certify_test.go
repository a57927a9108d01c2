package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"logpopt/internal/cliutil"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs/causal"
	"logpopt/internal/obs/report"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
)

var reportSink *report.Report

// BenchmarkCertifyReport runs the certifying half of `logpsched -report`
// on the P=1e5 broadcast and scan schedules: cliutil.BuildReport's strict
// replay on a fresh engine, its port statistics and time series, given the
// causal analysis BenchmarkCausalAnalyze measures on its own. events/sec
// counts the schedule's events. As there, the collector runs between
// iterations, off the clock, so allocs/op is BuildReport's own count.
func BenchmarkCertifyReport(b *testing.B) {
	m := logp.Machine{P: 100_000, L: 6, O: 2, G: 4}
	for _, op := range []string{"broadcast", "scan"} {
		b.Run(op, func(b *testing.B) {
			comp, err := sched.Compile(m, op, 1, 0, logtime.Tree)
			if err != nil {
				b.Fatal(err)
			}
			og := schedule.DerivedOrigins(comp.S)
			crep := causal.Analyze(comp.S, og)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.Gosched() // let the cycle's cleanup run off the clock
				b.StartTimer()
				reportSink = cliutil.BuildReport("logpsched", op, comp.S, og, comp.Bound, crep)
			}
			b.StopTimer()
			if reportSink.Violations != 0 {
				b.Fatalf("%s: %d violations", op, reportSink.Violations)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(len(comp.S.Events))*float64(b.N)/s, "events/sec")
			}
		})
	}
}
