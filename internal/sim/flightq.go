package sim

import (
	"cmp"
	"slices"

	"logpopt/internal/logp"
)

// flightQueue holds the messages in flight. Every message spends the same
// o+L cycles between its send and its arrival, and the engine clock never
// runs backwards, so messages arrive in the order they were sent: the queue
// is a FIFO. Only the messages arriving in one cycle need ordering among
// themselves — by destination, item, then sender (cmpFlight) — so each
// cycle's batch is sorted once, when its first message is popped. By then
// every message of the batch has been pushed, since a push happens o+L >= 1
// cycles before its arrival. Pushes append, and pops read one contiguous,
// sorted run.
type flightQueue struct {
	msgs   []Msg // msgs[head:] are in flight, in nondecreasing Arrive order
	head   int
	sorted int // msgs[head:sorted] is the due batch, in cmpFlight order
	peak   int // high-water size since the last reset (watermark input)
}

// cmpFlight is the total order in which messages arrive: by arrival time,
// then destination, item and sender.
func cmpFlight(a, b Msg) int {
	if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Item, b.Item); c != 0 {
		return c
	}
	return cmp.Compare(a.From, b.From)
}

// reset empties the queue, keeping its storage unless it is more than 4x
// the room reserve gives a run whose peak is keep messages, the Reset
// watermark.
func (q *flightQueue) reset(keep int) {
	if oversized(cap(q.msgs), 2*keep, 1024) {
		q.msgs = nil
	} else {
		q.msgs = q.msgs[:0]
	}
	q.head, q.sorted, q.peak = 0, 0, 0
}

// reserve sizes the queue for replaying sends (sorted by time), so that it
// never grows mid-run. A message sent at s is in flight from its push until
// the first tick at or past s+w, w = o+L, pops it; so when the batch of time
// t is pushed the queue holds exactly the sends from (t-w, t] — fewer if
// some fail. Twice that peak leaves push room to slide the queue to the
// front of its storage instead of growing it.
func (q *flightQueue) reserve(sends []replaySend, w logp.Time) {
	peak, j := 0, 0
	for i, ev := range sends {
		for sends[j].Time <= ev.Time-w {
			j++
		}
		peak = max(peak, i+1-j)
	}
	if need := q.len() + 2*peak; cap(q.msgs) < need {
		q.msgs = slices.Grow(q.msgs, need-len(q.msgs))
	}
}

func (q *flightQueue) len() int { return len(q.msgs) - q.head }

// nextArrival returns the earliest arrival time in flight. It must only be
// called when len() > 0.
func (q *flightQueue) nextArrival() logp.Time { return q.msgs[q.head].Arrive }

// push adds a message sent at the current time, which arrives no earlier
// than any message already in flight.
func (q *flightQueue) push(m Msg) {
	if len(q.msgs) == cap(q.msgs) && q.head >= len(q.msgs)/2 {
		// At least half the storage has been popped: slide the queue to
		// the front instead of growing it.
		n := copy(q.msgs, q.msgs[q.head:])
		q.msgs = q.msgs[:n]
		q.sorted -= q.head
		q.head = 0
	}
	q.msgs = append(q.msgs, m)
	q.peak = max(q.peak, q.len())
}

// pop removes and returns the first message to arrive, ties broken by
// cmpFlight. It must only be called when len() > 0.
func (q *flightQueue) pop() Msg {
	if q.head == q.sorted {
		at, end := q.msgs[q.head].Arrive, q.head+1
		for end < len(q.msgs) && q.msgs[end].Arrive == at {
			end++
		}
		slices.SortFunc(q.msgs[q.head:end], cmpFlight)
		q.sorted = end
	}
	m := q.msgs[q.head]
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head, q.sorted = 0, 0
	}
	return m
}
