package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"logpopt/internal/logtime"
	"logpopt/internal/serve/sched"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter folds everything written to it into a CRC-32C and a length, so
// a body can be checked as it streams in without being kept.
type crcWriter struct {
	crc uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += int64(len(p))
	return len(p), nil
}

// ref identifies the exact bytes a correct answer has.
type ref struct {
	crc uint32
	n   int64
}

func (w *crcWriter) sum() ref { return ref{w.crc, w.n} }

// check reports whether got is the answer want describes.
func (want ref) check(got ref) error {
	if got != want {
		return fmt.Errorf("body %d bytes crc32c %08x, want %d bytes crc32c %08x", got.n, got.crc, want.n, want.crc)
	}
	return nil
}

// reference compiles req locally the way the service's cache does
// (canonicalize, resolve the constructor, sched.Compile, WriteJSON), which
// the code guarantees is byte-identical to what /v1/schedule serves.
func reference(req sched.Request) (ref, error) {
	key, err := sched.Canonicalize(req, "auto")
	if err != nil {
		return ref{}, err
	}
	mode := key.Constructor
	if mode == "" {
		mode = "auto"
	}
	tb, _, err := logtime.Select(mode, key.P)
	if err != nil {
		return ref{}, err
	}
	c, err := sched.Compile(key.Machine(), key.Op, key.K, key.Deadline, tb)
	if err != nil {
		return ref{}, fmt.Errorf("compiling %s: %w", key, err)
	}
	var w crcWriter
	if err := c.S.WriteJSON(&w); err != nil {
		return ref{}, err
	}
	return w.sum(), nil
}

// references computes the reference of every request on two workers (the
// machine's core count), in request order.
func references(reqs []sched.Request) ([]ref, error) {
	out := make([]ref, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = reference(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refEntry is one reference in the on-disk store.
type refEntry struct {
	Req sched.Request
	CRC uint32
	N   int64
}

// storedReferences is references with an on-disk store under dir, so the
// runs of one build compute each answer once. The store is named after a
// hash of this executable, which links the code the answers come from, so a
// rebuilt benchmark never reads another build's answers.
func storedReferences(dir string, reqs []sched.Request) ([]ref, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	exe, err := os.ReadFile(self)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(exe)
	path := filepath.Join(dir, fmt.Sprintf("refs-%x.json", sum[:8]))
	known := map[sched.Request]ref{}
	if data, err := os.ReadFile(path); err == nil {
		var entries []refEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("reference store %s: %w", path, err)
		}
		for _, e := range entries {
			known[e.Req] = ref{e.CRC, e.N}
		}
	}
	var missing []sched.Request
	for _, r := range reqs {
		if _, ok := known[r]; !ok {
			missing = append(missing, r)
			known[r] = ref{} // listed once
		}
	}
	if len(missing) > 0 {
		computed, err := references(missing)
		if err != nil {
			return nil, err
		}
		for i, r := range missing {
			known[r] = computed[i]
		}
		entries := make([]refEntry, 0, len(known))
		for r, v := range known {
			entries = append(entries, refEntry{r, v.crc, v.n})
		}
		data, err := json.Marshal(entries)
		if err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
	}
	out := make([]ref, len(reqs))
	for i, r := range reqs {
		out[i] = known[r]
	}
	return out, nil
}
