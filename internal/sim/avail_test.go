package sim

import (
	"math/rand"
	"testing"

	"logpopt/internal/logp"
)

// TestAvailStoreMatchesMap drives the availability store with random
// setMin and get calls against a map oracle, on processors holding up to a
// few hundred items each. Successive rounds reuse one store across resets
// and cover the three ways a window gets its room: reserved exactly as
// Replay does, reserved too small, and not reserved at all (an
// interactively driven engine), where windows relocate as they fill.
func TestAvailStoreMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a availStore
	type key struct{ p, item int }
	for round := 0; round < 60; round++ {
		p := 1 + rng.Intn(40)
		a.reset(p, p, 0)
		items := 1 + rng.Intn(300)
		ops := rng.Intn(4000)
		switch round % 3 {
		case 0: // exact reservation: every call below may insert
			holds := make([]int32, p)
			for i := range holds {
				holds[i] = int32(min(ops, items))
			}
			a.reserve(holds)
		case 1: // too small: windows relocate once they fill
			holds := make([]int32, p)
			for i := range holds {
				holds[i] = int32(rng.Intn(3))
			}
			a.reserve(holds)
		}
		want := map[key]logp.Time{}
		for i := 0; i < ops; i++ {
			k := key{rng.Intn(p), rng.Intn(items)}
			if rng.Intn(3) == 0 {
				got, ok := a.get(k.p, k.item)
				w, wok := want[k]
				if ok != wok || got != w {
					t.Fatalf("round %d: get(%d, %d) = %d, %v; oracle %d, %v", round, k.p, k.item, got, ok, w, wok)
				}
				continue
			}
			at := logp.Time(rng.Intn(1000) - 100)
			a.setMin(k.p, k.item, at)
			if w, ok := want[k]; !ok || at < w {
				want[k] = at
			}
		}
		var latest logp.Time
		for k, w := range want {
			if got, ok := a.get(k.p, k.item); !ok || got != w {
				t.Fatalf("round %d: get(%d, %d) = %d, %v at the end; oracle %d", round, k.p, k.item, got, ok, w)
			}
			latest = max(latest, w)
		}
		if got := a.latest(); got != latest {
			t.Fatalf("round %d: latest %d, oracle %d", round, got, latest)
		}
		for q := 0; q < p; q++ {
			if _, ok := a.get(q, items); ok {
				t.Fatalf("round %d: processor %d holds item %d, which was never set", round, q, items)
			}
		}
	}
}
