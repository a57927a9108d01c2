package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark has started and not yet
// reaped, so a deadline or a signal can stop them all before exiting.
var children struct {
	sync.Mutex
	pids map[int]bool
}

// startChild starts cmd and tracks it until reap.
func startChild(cmd *exec.Cmd) error {
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if children.pids == nil {
		children.pids = map[int]bool{}
	}
	children.pids[cmd.Process.Pid] = true
	return nil
}

// reap waits for cmd and stops tracking it.
func reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.pids, cmd.Process.Pid)
	children.Unlock()
	return err
}

// killChildren SIGKILLs every tracked process and waits (up to two seconds
// each) until it has ended.
func killChildren() {
	children.Lock()
	var pids []int
	for pid := range children.pids {
		pids = append(pids, pid)
		syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	}
	children.Unlock()
	for _, pid := range pids {
		for i := 0; i < 200 && running(pid); i++ {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// running reports whether pid still executes (exists and is not a zombie).
func running(pid int) bool {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	f := statFields(b)
	return len(f) > 0 && f[0] != "Z"
}

// statFields splits /proc/<pid>/stat after the command name, so index 0 is
// the state (field 3 of proc(5)).
func statFields(b []byte) []string {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(b[i+1:]))
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every mainstream Linux architecture).
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time pid has used, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	f := statFields(b)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime: fields 14 and 15
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procHWM is pid's peak resident set size in bytes (VmHWM).
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}
