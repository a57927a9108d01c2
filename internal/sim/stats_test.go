package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"logpopt/internal/core"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/obs"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
)

// TestStatsPerProc checks the per-processor busy/idle breakdown sums to the
// run-global figures and that idle + busy covers the span for every
// processor.
func TestStatsPerProc(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	e, rep := Run(s, Strict, core.Origins(0))
	st := e.Stats()
	if len(st.PerProc) != m.P {
		t.Fatalf("PerProc has %d entries, want %d", len(st.PerProc), m.P)
	}
	var sends, recvs int
	var busy int64
	for p, pp := range st.PerProc {
		sends += pp.Sends
		recvs += pp.Recvs
		busy += pp.BusyCycles
		if pp.BusyCycles+pp.IdleCycles < int64(st.Span) {
			t.Errorf("P%d: busy %d + idle %d < span %d", p, pp.BusyCycles, pp.IdleCycles, st.Span)
		}
		if pp.MaxQueue != 0 {
			t.Errorf("P%d: strict-mode MaxQueue %d, want 0", p, pp.MaxQueue)
		}
	}
	if sends != st.Sends || recvs != st.Recvs || busy != st.BusyCycles {
		t.Fatalf("per-proc sums (%d,%d,%d) != totals (%d,%d,%d)",
			sends, recvs, busy, st.Sends, st.Recvs, st.BusyCycles)
	}
	// Every non-root processor receives exactly once in a broadcast.
	for p := 1; p < m.P; p++ {
		if st.PerProc[p].Recvs != 1 {
			t.Errorf("P%d received %d times, want 1", p, st.PerProc[p].Recvs)
		}
	}
	if st.Span != rep.Finish {
		t.Fatalf("span %d != finish %d", st.Span, rep.Finish)
	}
}

// TestStatsBufferedHighWater drives two simultaneous arrivals at one
// processor in Buffered mode and checks the queue high-water lands on the
// right processor in the per-proc breakdown.
func TestStatsBufferedHighWater(t *testing.T) {
	m := logp.MustNew(3, 4, 1, 2)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 0, 2)
	s.Send(1, 0, 1, 2)
	origins := map[int]schedule.Origin{
		0: {Proc: 0, Time: 0},
		1: {Proc: 1, Time: 0},
	}
	e, _ := Run(s, Buffered, origins)
	st := e.Stats()
	if st.MaxQueue != 2 {
		t.Fatalf("MaxQueue %d, want 2 (two simultaneous arrivals)", st.MaxQueue)
	}
	if st.PerProc[2].MaxQueue != 2 || st.PerProc[0].MaxQueue != 0 || st.PerProc[1].MaxQueue != 0 {
		t.Fatalf("per-proc queue marks %v, want them all at P2",
			[]int{st.PerProc[0].MaxQueue, st.PerProc[1].MaxQueue, st.PerProc[2].MaxQueue})
	}
}

// TestReplayTracer attaches a tracer to a replay and checks the emitted
// flight recorder is valid Chrome trace JSON with send and recv spans on
// per-processor tracks.
func TestReplayTracer(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	e := New(m, Strict)
	e.Tracer = obs.NewTracer()
	rep := e.Replay(s, core.Origins(0))
	if len(rep.Violations) != 0 {
		t.Fatal(rep.Violations)
	}
	if e.Tracer.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	var sb strings.Builder
	if err := e.Tracer.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			spans++
		}
	}
	// 7 sends + 7 recvs in an 8-processor broadcast.
	if spans != 14 {
		t.Fatalf("%d spans, want 14", spans)
	}
}

// TestTracerDisabledIsInert checks the executed schedule and report are
// identical with and without a tracer attached (the tracer observes, never
// perturbs).
func TestTracerDisabledIsInert(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4)
	s := core.BroadcastSchedule(m, 0)
	plain, repPlain := Run(s, Strict, core.Origins(0))
	traced := New(m, Strict)
	traced.Tracer = obs.NewTracer()
	repTraced := traced.Replay(s, core.Origins(0))
	if repPlain.Finish != repTraced.Finish {
		t.Fatalf("finish differs: %d vs %d", repPlain.Finish, repTraced.Finish)
	}
	a, b := plain.Executed(), traced.Executed()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestStatsMatchesExecutedOracle pins the report path's shortcut: the
// engine's Stats, computed over its unsorted executed events, equals
// ComputeStats over the sorted copy Executed returns — the old path, kept
// as the oracle — for every compilable op, on a LogP and a postal machine,
// in both reception modes.
func TestStatsMatchesExecutedOracle(t *testing.T) {
	for _, m := range []logp.Machine{logp.MustNew(10, 3, 1, 2), logp.Postal(10, 3)} {
		for _, op := range sched.Ops {
			mm := m
			if sched.PostalOp(op) {
				mm = logp.Postal(m.P, m.L)
			}
			comp, err := sched.Compile(mm, op, 2, 40, logtime.Tree)
			if err != nil {
				t.Fatalf("%s on %v: %v", op, mm, err)
			}
			og := schedule.DerivedOrigins(comp.S)
			for _, mode := range []Mode{Strict, Buffered} {
				e, rep := Run(comp.S, mode, og)
				want := schedule.ComputeStats(e.Executed(), rep.Finish, e.ProcMaxBuffers())
				if got := e.Stats(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %v, mode %d: Stats %+v, oracle %+v", op, mm, mode, got, want)
				}
			}
		}
	}
}
