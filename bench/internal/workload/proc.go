package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// userHz is the unit of utime/stime in /proc/<pid>/stat; Linux fixes it
// at 100 for user space on every architecture Go supports.
const userHz = 100

// CPUSeconds returns the CPU time (user + system, all threads) the
// process has consumed. It sums the nanosecond run times in
// /proc/<pid>/task/*/schedstat, and falls back to the 10 ms ticks of
// /proc/<pid>/stat on kernels built without scheduler statistics.
func CPUSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseUint(f[0], 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14, 15.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat line for pid %d", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: bad utime/stime for pid %d", pid)
	}
	return float64(utime+stime) / userHz, nil
}

// PeakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB.
func PeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("proc: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no VmHWM for pid %d", pid)
}

// CPUModel returns the first "model name" of /proc/cpuinfo.
func CPUModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// Kernel returns the running kernel release.
func Kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
