package sim

import "logpopt/internal/logp"

// availStore maps (processor, item) -> earliest availability time without a
// per-processor map: each processor owns a contiguous window of one shared
// slab, and a lookup scans that window, newest item first. Replay sizes
// every window from the schedule before the run starts (reserve), so the
// windows sit back to back and a cold replay allocates the slab once; a
// broadcast processor's window is a single entry, one direct-indexed read.
// An interactively driven engine, or a window that outgrows its
// reservation, relocates the window to the end of the slab at twice its
// size, so growth stays amortised O(1) and every processor's items stay
// contiguous.
//
// A lookup costs O(items the processor holds) — one for broadcast, a
// handful for scan and reduce, k for k-item schedules — scanned in
// contiguous memory.
type availStore struct {
	win  []availWindow // per processor
	slab []availEntry
	n    int // entries held, over all windows
}

// availWindow is one processor's slice of the slab: n entries in use out of
// cap, starting at off.
type availWindow struct {
	off, n, cap int32
}

type availEntry struct {
	item int
	at   logp.Time
}

// reset prepares the store for p processors, reusing the window table and
// the slab unless they have grown far past what the Reset watermarks say
// later runs need: keepProcs processors and keepSlab slab entries.
func (a *availStore) reset(p, keepProcs, keepSlab int) {
	if cap(a.win) < p || oversized(cap(a.win), max(p, keepProcs), 1024) {
		a.win = make([]availWindow, p)
	} else {
		a.win = a.win[:p]
		clear(a.win)
	}
	if oversized(cap(a.slab), keepSlab, 1024) {
		a.slab = nil
	} else {
		a.slab = a.slab[:0]
	}
	a.n = 0
}

// reserve lays out one window per processor, processor p's holding up to
// holds[p] items, in a slab allocated only when the current one is too
// small. It is a no-op on a store that already holds items, whose windows
// must stay where they are.
func (a *availStore) reserve(holds []int32) {
	if a.n > 0 {
		return
	}
	total := 0
	for _, h := range holds {
		total += int(h)
	}
	if cap(a.slab) < total {
		a.slab = make([]availEntry, total)
	}
	a.slab = a.slab[:total]
	off := int32(0)
	for p, h := range holds {
		a.win[p] = availWindow{off: off, cap: h}
		off += h
	}
}

// find returns the slab index of item in p's window, or -1.
func (a *availStore) find(p, item int) int32 {
	w := a.win[p]
	for i := w.off + w.n - 1; i >= w.off; i-- {
		if a.slab[i].item == item {
			return i
		}
	}
	return -1
}

// get returns the availability time of item at processor p, if known.
func (a *availStore) get(p, item int) (logp.Time, bool) {
	if i := a.find(p, item); i >= 0 {
		return a.slab[i].at, true
	}
	return 0, false
}

// setMin records that item is available at processor p from time at,
// keeping the earliest time when the pair is already known.
func (a *availStore) setMin(p, item int, at logp.Time) {
	if i := a.find(p, item); i >= 0 {
		a.slab[i].at = min(a.slab[i].at, at)
		return
	}
	w := &a.win[p]
	if w.n == w.cap {
		off := int32(len(a.slab))
		w.cap = max(2*w.cap, 1)
		a.slab = append(a.slab, make([]availEntry, w.cap)...)
		copy(a.slab[off:], a.slab[w.off:w.off+w.n])
		w.off = off
	}
	a.slab[w.off+w.n] = availEntry{item: item, at: at}
	w.n++
	a.n++
}

// latest returns the maximum availability time over every (processor, item)
// pair in the store, and at least 0 — the run's finish time.
func (a *availStore) latest() logp.Time {
	var mx logp.Time
	for _, w := range a.win {
		for _, en := range a.slab[w.off : w.off+w.n] {
			mx = max(mx, en.at)
		}
	}
	return mx
}
