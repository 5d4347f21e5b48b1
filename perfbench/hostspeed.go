package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// On a shared VM the host's speed drifts by as much as half over seconds
// to minutes: on a 2-vCPU VM, a fixed single-goroutine loop timed in
// 5-second windows took anywhere from 9.4 to 15.2 ms, with the guest's
// steal time near zero. A time measured at one moment then says as much
// about the neighbours as about the program, and medians within a run
// cannot remove a drift that outlasts the run. So the end-to-end times
// that the CPU bounds are reported at a nominal host speed: a fixed
// reference computation, owned by the benchmark and sharing no code with
// the program, is timed before and after each operation (a set-up, a
// solve, a batch of rounds, a saturation step), and the operation's time
// is scaled by refNominal over the mean of those two probes. A change to
// the program moves the scaled time as it moves the raw one; a change in
// the host's speed moves both the operation and its probes, and cancels.

// refNominal is the reference probe's time at the nominal host speed, in
// seconds: about its median on the 2-vCPU VM the benchmark was sized on,
// so scaled times read close to raw ones there.
const refNominal = 0.005

const (
	refIters  = 2_000_000 // loop iterations per goroutine and probe run
	refPings  = 10_000    // round trips between two goroutines per probe run
	refRounds = 3         // probe runs per probe; the probe is their median
	refWords  = 1 << 15   // 256 KiB table per goroutine: cache-resident, like a PE's working set
)

// refTables are the reference loop's private tables, one per goroutine.
var refTables = [2][]uint64{make([]uint64, refWords), make([]uint64, refWords)}

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoop is the reference computation: a fixed pseudo-random walk of
// read-modify-writes over tb.
func refLoop(tb []uint64) uint64 {
	x := uint64(1)
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tb[(x>>33)&(refWords-1)] += x
	}
	return x
}

// pingPong passes a token between two goroutines refPings times: the
// host's cost of waking one goroutine from another, which the message-bound
// workloads pay on every cross-PE send and the compute loop does not show.
func pingPong() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < refPings; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
}

// probe times the reference computation now. One probe run is the
// geometric mean of three timings: the loop on one goroutine, the loop on
// two at once (the workloads use both vCPUs, and the two can slow down
// separately), and pingPong. The probe is the median of refRounds runs,
// in seconds. It starts from a collected heap, so a collection the last
// operation left running does not land in it.
func probe() float64 {
	runtime.GC()
	runs := make([]float64, refRounds)
	for i := range runs {
		t0 := time.Now()
		refSink += refLoop(refTables[0])
		one := elapsed(t0)

		t0 = time.Now()
		var wg sync.WaitGroup
		var xs [2]uint64
		for g := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				xs[g] = refLoop(refTables[g])
			}()
		}
		wg.Wait()
		two := elapsed(t0)
		refSink += xs[0] + xs[1]

		t0 = time.Now()
		pingPong()
		runs[i] = math.Cbrt(one * two * elapsed(t0))
	}
	return median(runs)
}

// hostRef scales operation times to the nominal host speed. Operations
// and probes alternate: probe, operation, probe, operation, probe, ...
type hostRef struct {
	prev   float64   // the probe taken after the previous operation
	probes []float64 // every probe, in seconds
}

func newHostRef() *hostRef {
	h := &hostRef{}
	h.prev = h.probe()
	return h
}

func (h *hostRef) probe() float64 {
	p := probe()
	h.probes = append(h.probes, p)
	return p
}

// reprobe probes before an operation that follows other work.
func (h *hostRef) reprobe() { h.prev = h.probe() }

// factor probes after an operation and returns the factor that scales the
// operation's times to the nominal host speed: refNominal over the mean
// of the probes before and after it.
func (h *hostRef) factor() float64 {
	next := h.probe()
	f := refNominal / ((h.prev + next) / 2)
	h.prev = next
	return f
}

// scale is factor applied to a single time d, in any unit.
func (h *hostRef) scale(d float64) float64 { return d * h.factor() }
