package main

import "testing"

func TestKernelChecksum(t *testing.T) {
	if sum := kernel(); sum != wantSum {
		t.Fatalf("kernel() = %d, want %d", sum, wantSum)
	}
}
