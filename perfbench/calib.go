package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose speed changes
// with its other tenants' load, by up to 2× over minutes. That moves every
// time the program takes, its user and system CPU included, in runs of
// identical work. To take the host out of the end-to-end times, a run
// interleaves its operations with a fixed reference program (perfcal, the
// benchmark's own kernel in ./perfcal, run as a child process while the
// program under test is idle). It then scales each wall time by refCalWall
// over the run's median perfcal wall time, and each CPU time by refCalCPU
// over the median perfcal CPU time. A time then reads as it would on a host
// where perfcal takes the reference times. perfcal imports nothing of the
// program, so a change to the program moves the scaled times as it moves
// the raw ones. The raw times and the factors go to stderr.

// Reference perfcal times: its median wall and CPU time over 10 runs of the
// benchmark on the 2-core x86-64 VM it was sized on.
const (
	refCalWall = 52 * time.Millisecond
	refCalCPU  = 56 * time.Millisecond
)

// calibrator runs the reference program before each set-up and between
// stretches of the timed window, and keeps the two phases' times apart: a
// host that changes speed between set-up and window scales each by its own.
type calibrator struct {
	bin           string
	setup, window calTimes
	errors        []string
}

// calTimes are one phase's perfcal times, in ms.
type calTimes struct{ wall, cpu []float64 }

// sample runs the reference program once, while the program under test is
// idle, records its times in into, and returns how long it took so the
// caller can leave it out of a timed window.
func (c *calibrator) sample(into *calTimes) time.Duration {
	cmd := exec.Command(c.bin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := startChild(cmd)
	if err == nil {
		err = reap(cmd)
	}
	took := time.Since(start)
	if err != nil {
		c.errors = append(c.errors, fmt.Sprintf("calibration: %v: %s", err, lastLine(stderr.String())))
		return took
	}
	into.wall = append(into.wall, ms(took))
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		into.cpu = append(into.cpu, ms(time.Duration(ru.Utime.Nano()+ru.Stime.Nano())))
	}
	return took
}

// factors are the phase's scale factors for wall and CPU times: reference
// over median, so a slow host (long perfcal runs) scales times down.
func (t calTimes) factors() (wall, cpu float64) {
	wall, cpu = 1, 1
	if m := median(t.wall); m > 0 {
		wall = ms(refCalWall) / m
	}
	if m := median(t.cpu); m > 0 {
		cpu = ms(refCalCPU) / m
	}
	return wall, cpu
}
