// Command perfcal is perfbench's host-speed reference program: a fixed
// kernel that imports nothing of the program under test. perfbench runs it
// between operations and scales its times by how long perfcal took (see
// ../calib.go). It exits 1 if the kernel's checksum is wrong.
package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
)

// Kernel sizes: about 70 ms in all on the 2-core x86-64 VM the benchmark
// was sized on.
const (
	treeNodes   = 25_000
	streamWords = 2 << 20 // 16 MiB
	mixRounds   = 2_500_000
)

// node is one vertex of the kernel's tree.
type node struct {
	kids []*node
	id   int
}

// kernel is the reference work, in three parts chosen to resemble the
// program's own. The first allocates a ternary tree of small pointer-linked
// nodes and a map beside it, then walks the tree encoding each node as
// JSON text with strconv, as schedule construction and encoding do. The
// second fills a fresh 16 MiB array and reads it back twice, so page
// faults and memory bandwidth weigh in as they do for the program's large
// heaps. The third is a register-only integer loop, which the host's load
// slows without any help from the memory system. It returns a checksum of
// all three so no work can be skipped.
func kernel() uint32 {
	nodes := make([]*node, treeNodes)
	m := map[int]int{}
	for i := range nodes {
		nodes[i] = &node{id: i}
		if i > 0 {
			p := nodes[(i-1)/3]
			p.kids = append(p.kids, nodes[i])
		}
		m[i*7919%treeNodes] = i
	}
	buf := make([]byte, 0, 64)
	var walk func(*node, int)
	walk = func(nd *node, depth int) {
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(nd.id), 10)
		buf = append(buf, `,"peer":`...)
		buf = strconv.AppendInt(buf, int64(m[nd.id]), 10)
		buf = append(buf, `,"depth":`...)
		buf = strconv.AppendInt(buf, int64(depth), 10)
		buf = append(buf, "}\n"...)
		for _, k := range nd.kids {
			walk(k, depth+1)
		}
	}
	walk(nodes[0], 0)
	words := make([]uint64, streamWords)
	x := uint64(1)
	for i := range words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words[i] = x
	}
	for pass := 0; pass < 2; pass++ {
		for _, w := range words {
			x += w >> pass
		}
	}
	for i := 0; i < mixRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += x / 3
	}
	return crc32.Update(crc32.ChecksumIEEE(buf), crc32.IEEETable, strconv.AppendUint(nil, x, 10))
}

// wantSum is kernel()'s checksum.
const wantSum = 2455866916

func main() {
	if sum := kernel(); sum != wantSum {
		fmt.Fprintf(os.Stderr, "perfcal: checksum %d, want %d\n", sum, wantSum)
		os.Exit(1)
	}
}
