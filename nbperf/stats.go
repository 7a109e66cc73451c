package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of ascending xs with the rank
// convention of sim.Histogram: element ceil(p·(n−1)).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[int(math.Ceil(p*float64(len(xs)-1)))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder lists the percentiles a tail latency may be reported at. It
// stops at p99 on purpose: at 30 s verify-mix completes 10 000 to 18 000
// requests, right where p99.9 gains its tenth sample beyond, so a ladder
// reaching p99.9 made the reported percentile flip between runs of the
// same workload. Higher percentiles are still printed (latencyLine).
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99}

// minBeyond is the number of samples a reported tail percentile must
// have strictly above it.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples above its rank, and returns that count. ok is
// false when n is too small for even the lowest rung.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		rank := int(math.Ceil(tailLadder[i] * float64(n-1)))
		if b := n - 1 - rank; b >= minBeyond {
			return tailLadder[i], b, true
		}
	}
	return 0, 0, false
}

// latencyLine renders every percentile of sorted latencies xs that has
// at least minBeyond samples above it, beyond the tail ladder too.
func latencyLine(xs []float64) string {
	var b strings.Builder
	for _, p := range []float64{0.5, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999} {
		rank := int(math.Ceil(p * float64(len(xs)-1)))
		if beyond := len(xs) - 1 - rank; beyond >= minBeyond {
			fmt.Fprintf(&b, " p%g=%.3fms(%d beyond)", p*100, xs[rank], beyond)
		}
	}
	return strings.TrimSpace(b.String())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative count of heap bytes allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSBytes is the process's peak resident set size: VmHWM from
// /proc/self/status, or getrusage's maximum where /proc is missing.
func peakRSSBytes() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}
