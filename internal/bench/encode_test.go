package bench

import (
	"io"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/serve/sched"
)

// BenchmarkScheduleWriteJSON encodes the P=1e5 broadcast schedule — the
// largest layer of a cold /v1/schedule request — and writes it to
// io.Discard, as WriteJSON does. MB/s is the encoder's throughput. The
// output buffer is sized once and reused, so allocs/op is a deterministic 0
// that bench-gate holds exactly: a fresh 11 MB buffer per op would start GC
// cycles, and in a binary that links net/http each cycle's runtime
// bookkeeping would count toward allocs/op. WriteJSON's single exact-size
// allocation is pinned by the schedule package's TestAppendJSONAllocs.
func BenchmarkScheduleWriteJSON(b *testing.B) {
	m := logp.Machine{P: 100_000, L: 6, O: 2, G: 4}
	comp, err := sched.Compile(m, "broadcast", 1, 0, logtime.Tree)
	if err != nil {
		b.Fatal(err)
	}
	buf := comp.S.AppendJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = comp.S.AppendJSON(buf[:0])
		if _, err := io.Discard.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}
