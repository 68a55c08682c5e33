package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the process's accumulated user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) total() time.Duration    { return c.user + c.sys }

// processCPU reads getrusage(RUSAGE_SELF). Client and server of the wire
// workloads both live in this process, so this is the whole stack's CPU.
func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux: "5" to
// /proc/self/clear_refs), so the next reading is the peak since this call.
// A process's lifetime peak is one garbage-collection overshoot away from
// being a third higher — on the same seed — and grows with the run's length;
// the peak of a pass, taken as a median over passes, is neither. Where the
// kernel refuses the write the readings are lifetime peaks, which is what
// the metric was before.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the process's peak resident set since the last
// reset, from /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memCounters are the runtime.MemStats fields a pass brackets.
type memCounters struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapInuse      uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{
		mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC,
		gcPause: time.Duration(m.PauseTotalNs), heapInuse: m.HeapInuse,
	}
}

// canarySink keeps the compiler from deleting the canary loop.
var canarySink uint64

// canaryNs times a fixed CPU-bound loop that touches no memory: on a quiet
// box it reads the same every time, so a set whose canary is well off the
// session's best ran while something else had the cores.
func canaryNs() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 400_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		canarySink += x
	}
	return float64(best.Nanoseconds())
}

// timerNs measures the cost of one start/stop timestamp pair — what a
// latency pass adds to every front-door call and a capacity pass does not.
func timerNs() float64 {
	const n = 200_000
	var acc time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		acc += time.Since(a)
	}
	total := time.Since(t0)
	canarySink += uint64(acc)
	return float64(total.Nanoseconds()) / n
}
