package schedule_test

import (
	"math/rand"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/schedule"
)

func TestComputeStatsEmpty(t *testing.T) {
	m := logp.MustNew(4, 6, 2, 4)
	s := &schedule.Schedule{M: m}
	st := schedule.ComputeStats(s, 0, nil)
	if st.Sends != 0 || st.Recvs != 0 || st.BusyCycles != 0 || st.Span != 0 {
		t.Fatalf("empty schedule: %+v", st)
	}
	if st.PortUtilFinish != 0 {
		t.Errorf("empty schedule utilization = %v, want 0 (no division by zero span)", st.PortUtilFinish)
	}
	if len(st.PerProc) != m.P {
		t.Fatalf("PerProc has %d entries, want P=%d", len(st.PerProc), m.P)
	}
	for p, pp := range st.PerProc {
		if pp != (schedule.ProcStats{}) {
			t.Errorf("P%d nonzero on empty schedule: %+v", p, pp)
		}
	}
	// Positive span with no events: everything is idle.
	st = schedule.ComputeStats(s, 10, nil)
	for p, pp := range st.PerProc {
		if pp.IdleCycles != 10 || pp.BusyCycles != 0 {
			t.Errorf("P%d: busy=%d idle=%d, want 0/10", p, pp.BusyCycles, pp.IdleCycles)
		}
	}
}

func TestComputeStatsSingleProcessor(t *testing.T) {
	m := logp.MustNew(1, 3, 2, 2)
	s := &schedule.Schedule{M: m}
	s.Compute(0, 0, 5, 0)
	st := schedule.ComputeStats(s, 5, nil)
	if st.Sends != 0 || st.Recvs != 0 {
		t.Fatalf("compute-only: %+v", st)
	}
	// Compute events carry no port overhead, so the port is idle all span.
	if st.PerProc[0].BusyCycles != 0 || st.PerProc[0].IdleCycles != 5 {
		t.Errorf("P0: %+v, want busy=0 idle=5", st.PerProc[0])
	}
}

// TestComputeStatsZeroDuration covers the postal model (o == 0): send and
// receive events are instantaneous, but ComputeStats charges one cycle per
// port event so utilization remains meaningful.
func TestComputeStatsZeroDuration(t *testing.T) {
	m := logp.Postal(2, 3)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 0, 1)
	s.Recv(1, m.L, 0, 0)
	st := schedule.ComputeStats(s, m.L, nil)
	if st.BusyCycles != 2 {
		t.Errorf("postal busy cycles = %d, want 1 per port event", st.BusyCycles)
	}
	if got := st.PerProc[0].IdleCycles; got != int64(m.L)-1 {
		t.Errorf("P0 idle = %d, want span-1 = %d", got, int64(m.L)-1)
	}
}

func TestComputeStatsOutOfRangeAndQueues(t *testing.T) {
	m := logp.MustNew(2, 3, 1, 2)
	s := &schedule.Schedule{M: m}
	s.Send(0, 0, 0, 1)
	s.Events = append(s.Events, schedule.Event{Proc: 9, Op: schedule.OpSend}) // ignored
	s.Events = append(s.Events, schedule.Event{Proc: -1, Op: schedule.OpRecv})
	st := schedule.ComputeStats(s, 4, []int{3}) // maxQueue shorter than P
	if st.Sends != 1 || st.Recvs != 0 {
		t.Errorf("out-of-range events counted: %+v", st)
	}
	if st.MaxQueue != 3 || st.PerProc[0].MaxQueue != 3 || st.PerProc[1].MaxQueue != 0 {
		t.Errorf("queue marks: %+v", st)
	}
}

// TestComputeStatsBusyIdleProperty is the property test: for any event mix,
// busy + idle == span for every processor whose port work fits in the span
// (idle is clamped at zero when an overfull trace exceeds it).
func TestComputeStatsBusyIdleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(6)
		o := int64(rng.Intn(3))
		g := o + int64(rng.Intn(3))
		if g < 1 {
			g = 1
		}
		m := logp.MustNew(p, 1+int64(rng.Intn(5)), o, g)
		s := &schedule.Schedule{M: m}
		n := rng.Intn(40)
		var span logp.Time
		for i := 0; i < n; i++ {
			at := logp.Time(rng.Intn(30))
			proc := rng.Intn(p)
			switch rng.Intn(3) {
			case 0:
				s.Send(proc, at, i, rng.Intn(p))
			case 1:
				s.Recv(proc, at, i, rng.Intn(p))
			default:
				s.Compute(proc, at, logp.Time(rng.Intn(4)), i)
			}
			if at > span {
				span = at
			}
		}
		span += 10 // leave room so clamping is the exception, not the rule
		st := schedule.ComputeStats(s, span, nil)
		for pr, pp := range st.PerProc {
			if pp.BusyCycles <= int64(span) {
				if pp.BusyCycles+pp.IdleCycles != int64(span) {
					t.Fatalf("trial %d P%d: busy %d + idle %d != span %d",
						trial, pr, pp.BusyCycles, pp.IdleCycles, span)
				}
			} else if pp.IdleCycles != 0 {
				t.Fatalf("trial %d P%d: overfull port has idle %d, want clamp to 0",
					trial, pr, pp.IdleCycles)
			}
		}
	}
}

// TestComputeStatsPostalPortsSeparate covers a postal processor that sends
// and receives in every cycle: its busy cycles reach twice the span, and
// utilization counts its two ports separately, so a fully busy run reads 1.
func TestComputeStatsPostalPortsSeparate(t *testing.T) {
	m := logp.Postal(2, 1)
	s := &schedule.Schedule{M: m}
	const span = 4
	for tm := logp.Time(0); tm < span; tm++ {
		s.Send(0, tm, int(tm), 1)
		s.Recv(0, tm+1, 100+int(tm), 1)
		s.Send(1, tm, 100+int(tm), 0)
		s.Recv(1, tm+1, int(tm), 0)
	}
	st := schedule.ComputeStats(s, span, nil)
	if st.BusyCycles != 4*span {
		t.Fatalf("busy cycles %d, want %d (one per port event)", st.BusyCycles, 4*span)
	}
	if st.PortUtilFinish != 1 {
		t.Fatalf("utilization %v, want 1: both ports of both processors busy every cycle", st.PortUtilFinish)
	}
	if pp := st.PerProc[0]; pp.BusyCycles != 2*span || pp.IdleCycles != 0 {
		t.Fatalf("P0 busy %d idle %d, want %d and 0", pp.BusyCycles, pp.IdleCycles, 2*span)
	}
}
