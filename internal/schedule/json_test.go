package schedule

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"logpopt/internal/logp"
)

// oracleJSON is the reflection encoder AppendJSON replaced: encoding/json
// over the wire structs. It is the byte-for-byte reference for WriteJSON.
func oracleJSON(t testing.TB, s *Schedule) []byte {
	t.Helper()
	js := jsonSchedule{
		Version: 1,
		Machine: jsonMachine{P: s.M.P, L: s.M.L, O: s.M.O, G: s.M.G},
		Events:  make([]jsonEvent, 0, len(s.Events)),
	}
	for _, e := range s.Events {
		js.Events = append(js.Events, jsonEvent{
			Proc: e.Proc, Time: e.Time, Op: e.Op.String(), Item: e.Item, Peer: e.Peer, Dur: e.Dur,
		})
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(js); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkAgainstOracle asserts WriteJSON emits the oracle's bytes and that
// AppendJSON(nil) is exactly sized.
func checkAgainstOracle(t testing.TB, s *Schedule) {
	t.Helper()
	want := oracleJSON(t, s)
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json:\ngot  %s\nwant %s", got.Bytes(), want)
	}
	b := s.AppendJSON(nil)
	if len(b) != s.jsonSize() || cap(b) != len(b) {
		t.Fatalf("AppendJSON(nil): len %d cap %d, exact size %d", len(b), cap(b), s.jsonSize())
	}
	pre := []byte("prefix")
	if b := s.AppendJSON(pre); !bytes.Equal(b, append([]byte("prefix"), want...)) || cap(b) != len(b) {
		t.Fatalf("AppendJSON onto a prefix: %q (cap %d)", b, cap(b))
	}
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	m := logp.MustNew(4, 6, 2, 4)
	cases := []struct {
		name   string
		events []Event
	}{
		{"nil events", nil},
		{"empty events", []Event{}},
		{"send recv comp", []Event{
			{Proc: 0, Time: 0, Op: OpSend, Item: 0, Peer: 1},
			{Proc: 1, Time: 8, Op: OpRecv, Item: 0, Peer: 0},
			{Proc: 2, Time: 20, Op: OpCompute, Item: 3, Peer: -1, Dur: 1},
		}},
		{"negatives", []Event{{Proc: -3, Time: -17, Op: OpSend, Item: -1, Peer: -2, Dur: -5}}},
		{"peer zero and positive", []Event{
			{Proc: 1, Time: 1, Op: OpRecv, Peer: 0},
			{Proc: 0, Time: 1, Op: OpSend, Peer: 12345},
		}},
		{"compute without duration", []Event{{Proc: 5, Time: 9, Op: OpCompute, Item: 2, Peer: -1}}},
		{"unknown ops", []Event{{Op: Op(7)}, {Op: Op(-12), Peer: 1}}},
		{"extreme times", []Event{
			{Time: math.MinInt64, Op: OpSend, Item: math.MaxInt, Peer: math.MinInt, Dur: math.MaxInt64},
			{Time: math.MaxInt64, Op: OpRecv, Proc: math.MinInt, Dur: math.MinInt64},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstOracle(t, &Schedule{M: m, Events: c.events})
		})
	}
	// The machine is not validated on the way out; extreme values still
	// encode like the oracle.
	checkAgainstOracle(t, &Schedule{M: logp.Machine{P: math.MinInt, L: math.MaxInt64, O: -1, G: math.MinInt64}})
}

// FuzzWriteJSON decodes arbitrary bytes into a schedule whose every field
// ranges over all of int64 and holds WriteJSON to the encoding/json oracle.
func FuzzWriteJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x00, 0x7f, 0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) < 8 {
				data = nil
				return 0
			}
			v := int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		s := &Schedule{M: logp.Machine{P: int(next()), L: next(), O: next(), G: next()}}
		for len(data) >= 8 {
			s.Events = append(s.Events, Event{
				Proc: int(next()), Time: next(), Op: Op(next()), Item: int(next()),
				Peer: int(next()), Dur: next(),
			})
		}
		checkAgainstOracle(t, s)
	})
}

// TestAppendJSONAllocs pins the encoder's allocation counts: none into a
// buffer with room, one (the exact-size output) for WriteJSON.
func TestAppendJSONAllocs(t *testing.T) {
	s := &Schedule{M: logp.MustNew(64, 6, 2, 4)}
	for i := 1; i < 64; i++ {
		wire(s, i-1, i, logp.Time(10*i), i)
	}
	s.Compute(3, 99, 1, 2)
	s.Events = append(s.Events, Event{Op: Op(9)})
	buf := make([]byte, 0, s.jsonSize())
	if n := testing.AllocsPerRun(20, func() { buf = s.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a right-sized buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { s.WriteJSON(io.Discard) }); n > 1 { //nolint:errcheck
		t.Errorf("WriteJSON: %v allocs, want at most 1", n)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Schedule{M: logp.MustNew(4, 6, 2, 4)}
	wire(s, 0, 1, 0, 7)
	wire(s, 1, 2, 10, 7)
	s.Compute(2, 20, 3, 1)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != s.M {
		t.Fatalf("machine %v, want %v", got.M, s.M)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("events differ:\ngot  %v\nwant %v", got.Events, s.Events)
	}
	// Round-tripped schedule must validate identically.
	if vs := Validate(got); len(vs) != len(Validate(s)) {
		t.Fatal("validation changed across round trip")
	}
}

func TestReadJSONRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"garbage", "not json"},
		{"bad version", `{"version":9,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]}`},
		{"bad machine", `{"version":1,"machine":{"p":0,"l":1,"o":0,"g":1},"events":[]}`},
		{"bad op", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[{"proc":0,"time":0,"op":"zap","item":0}]}`},
		{"unknown field", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[],"extra":1}`},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
