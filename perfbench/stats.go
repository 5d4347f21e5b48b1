package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs must be sorted. It returns 0 for an empty
// slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[lo] == xs[hi] || math.IsInf(xs[hi], 1) {
		return xs[hi] // equal neighbours, or a failure (+Inf) at the upper rank
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// iqrShare returns the distance between the first and third quartiles of
// xs as a share of their median, computed the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread this
// benchmark prints matches the one its acceptance check computes.
func iqrShare(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(j int) float64 { // j-th of the n=4 cut points, exclusive method
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// timerFloorUS measures the host's sleep floor: the median actual duration
// of time.Sleep(20µs), in microseconds. An open-loop generator that sleeps
// between arrivals cannot pace requests finer than this.
func timerFloorUS() float64 {
	const probes = 41
	ds := make([]float64, probes)
	for i := range ds {
		t0 := time.Now()
		time.Sleep(20 * time.Microsecond)
		ds[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(ds)
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// msOf converts a duration in nanoseconds to milliseconds.
func msOf(ns float64) float64 { return ns / 1e6 }
