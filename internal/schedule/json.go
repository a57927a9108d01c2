package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"logpopt/internal/logp"
)

// JSON interchange format, so schedules can be exported to (or imported
// from) external tooling — visualizers, other simulators, trace stores.
// The format is stable and versioned.

// jsonSchedule is the on-wire shape. ReadJSON decodes into it; AppendJSON
// writes the same shape by hand.
type jsonSchedule struct {
	Version int         `json:"version"`
	Machine jsonMachine `json:"machine"`
	Events  []jsonEvent `json:"events"`
}

type jsonMachine struct {
	P int       `json:"p"`
	L logp.Time `json:"l"`
	O logp.Time `json:"o"`
	G logp.Time `json:"g"`
}

type jsonEvent struct {
	Proc int       `json:"proc"`
	Time logp.Time `json:"time"`
	Op   string    `json:"op"` // "send" | "recv" | "comp"
	Item int       `json:"item"`
	Peer int       `json:"peer,omitempty"`
	Dur  logp.Time `json:"dur,omitempty"`
}

// WriteJSON serializes the schedule in one Write of AppendJSON's bytes.
func (s *Schedule) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.AppendJSON(nil))
	return err
}

// AppendJSON appends the schedule's interchange JSON to b and returns the
// extended slice. The bytes are exactly what encoding/json emits for the
// wire structs below (peer and dur omitted when zero, "events":[] when
// empty, a trailing newline); the package's tests hold it to that oracle.
// A length pass sizes the output first, so when b lacks the room it grows
// once to exactly len(b)+size: AppendJSON(nil) has cap == len.
func (s *Schedule) AppendJSON(b []byte) []byte {
	n := s.jsonSize()
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	b = append(b, `{"version":1,"machine":{"p":`...)
	b = strconv.AppendInt(b, int64(s.M.P), 10)
	b = append(b, `,"l":`...)
	b = strconv.AppendInt(b, s.M.L, 10)
	b = append(b, `,"o":`...)
	b = strconv.AppendInt(b, s.M.O, 10)
	b = append(b, `,"g":`...)
	b = strconv.AppendInt(b, s.M.G, 10)
	b = append(b, `},"events":[`...)
	for i := range s.Events {
		e := &s.Events[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"proc":`...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, e.Time, 10)
		b = append(b, `,"op":"`...)
		switch e.Op {
		case OpSend, OpRecv, OpCompute:
			b = append(b, e.Op.String()...)
		default:
			// Op.String's fallback, without fmt; no byte of it needs escaping.
			b = append(b, "op("...)
			b = strconv.AppendInt(b, int64(e.Op), 10)
			b = append(b, ')')
		}
		b = append(b, `","item":`...)
		b = strconv.AppendInt(b, int64(e.Item), 10)
		if e.Peer != 0 {
			b = append(b, `,"peer":`...)
			b = strconv.AppendInt(b, int64(e.Peer), 10)
		}
		if e.Dur != 0 {
			b = append(b, `,"dur":`...)
			b = strconv.AppendInt(b, e.Dur, 10)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// jsonSize is the exact length of AppendJSON's output: the fixed key
// literals plus a decimal digit count per field.
func (s *Schedule) jsonSize() int {
	n := len(`{"version":1,"machine":{"p":,"l":,"o":,"g":},"events":[]}`+"\n") +
		intLen(int64(s.M.P)) + intLen(s.M.L) + intLen(s.M.O) + intLen(s.M.G)
	if len(s.Events) > 0 {
		n += len(s.Events) - 1 // separating commas
	}
	for i := range s.Events {
		e := &s.Events[i]
		n += len(`{"proc":,"time":,"op":"","item":}`) +
			intLen(int64(e.Proc)) + intLen(e.Time) + intLen(int64(e.Item))
		switch e.Op {
		case OpSend, OpRecv, OpCompute:
			n += 4 // "send", "recv", "comp"
		default:
			n += len("op()") + intLen(int64(e.Op))
		}
		if e.Peer != 0 {
			n += len(`,"peer":`) + intLen(int64(e.Peer))
		}
		if e.Dur != 0 {
			n += len(`,"dur":`) + intLen(e.Dur)
		}
	}
	return n
}

// intLen is the length of strconv.AppendInt(nil, v, 10).
func intLen(v int64) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = -u // two's complement: also right for math.MinInt64
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// ReadJSON deserializes a schedule written by WriteJSON.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var js jsonSchedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("schedule: decoding JSON: %w", err)
	}
	if js.Version != 1 {
		return nil, fmt.Errorf("schedule: unsupported version %d", js.Version)
	}
	m := logp.Machine{P: js.Machine.P, L: js.Machine.L, O: js.Machine.O, G: js.Machine.G}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{M: m, Events: make([]Event, 0, len(js.Events))}
	for i, e := range js.Events {
		var op Op
		switch e.Op {
		case "send":
			op = OpSend
		case "recv":
			op = OpRecv
		case "comp":
			op = OpCompute
		default:
			return nil, fmt.Errorf("schedule: event %d has unknown op %q", i, e.Op)
		}
		s.Events = append(s.Events, Event{
			Proc: e.Proc, Time: e.Time, Op: op, Item: e.Item, Peer: e.Peer, Dur: e.Dur,
		})
	}
	return s, nil
}
