package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/transport"
)

// The bcast-reduce workload broadcasts a 64-byte payload to a 4096-element
// chare array over 4 in-memory nodes × 1 PE and reduces one int per element
// with SumReducer, round after round. It is the only workload whose rounds
// cross more than two nodes: spanning-tree broadcast, many-element
// scheduling and the shared fan-out buffer.
const (
	bcastNodes   = 4
	bcastElems   = 4096
	bcastPayload = 64
	bcastSetups  = 9
	// bcastPayloads is how many distinct seeded payloads the rounds cycle
	// through.
	bcastPayloads = 64
	// bcastWarmup is how many rounds set-up runs, so pools and location
	// caches are filled before the first timed round.
	bcastWarmup = 10
	// bcastBatch is how many rounds run between two probes of the host's
	// speed (see hostRef): about 0.4 s of rounds.
	bcastBatch = 128
)

// member is one element of the broadcast target array.
type member struct {
	core.Chare
}

// Bcast contributes the payload's byte sum plus the element's index, so
// the reduced total checks both that every element received the payload
// intact and that every element contributed exactly once.
func (m *member) Bcast(payload []byte, done core.Future) {
	s := 0
	for _, b := range payload {
		s += int(b)
	}
	m.Contribute(s+m.ThisIndex[0], core.SumReducer, done)
}

// bcastJob boots the 4-node job, creates the array, runs the warm-up
// rounds, and then calls body on node 0 with the job's runtimes.
func bcastJob(rc *runCtx, traced bool, payloads [][]byte, want []int, body func(self *core.Chare, arr core.Proxy, rts []*core.Runtime)) error {
	nw := transport.NewMemNetwork(bcastNodes)
	defer func() {
		for i := 0; i < bcastNodes; i++ {
			_ = nw.Endpoint(i).Close()
		}
	}()
	cfg := func(i int) core.Config { return core.Config{PEs: 1, Transport: nw.Endpoint(i)} }
	if traced {
		j := rc.lay.startJob(bcastNodes, 1)
		defer rc.lay.endJob(j)
		cfg = func(i int) core.Config { return rc.lay.config(j, i, 1, nw.Endpoint(i)) }
	}
	rts := make([]*core.Runtime, bcastNodes)
	for i := range rts {
		rts[i] = core.NewRuntime(cfg(i))
		rts[i].Register(&member{})
	}
	var wg sync.WaitGroup
	for i := 1; i < bcastNodes; i++ {
		wg.Add(1)
		go func(rt *core.Runtime) {
			defer wg.Done()
			rt.Start(nil)
		}(rts[i])
	}
	var err error
	rts[0].Start(func(self *core.Chare) {
		defer self.Exit()
		arr := self.NewArray(&member{}, []int{bcastElems})
		for i := 0; i < bcastWarmup; i++ {
			f := self.CreateFuture()
			arr.Call("Bcast", payloads[i], f)
			if got := f.Get(); got != want[i] {
				err = fmt.Errorf("warm-up round %d reduced to %v, want %d", i, got, want[i])
				return
			}
		}
		body(self, arr, rts)
	})
	wg.Wait()
	return err
}

func runBcast(rc *runCtx) {
	rep := rc.rep
	rng := rand.New(rand.NewSource(rc.seed))
	payloads := make([][]byte, bcastPayloads)
	want := make([]int, bcastPayloads)
	for i := range payloads {
		payloads[i] = make([]byte, bcastPayload)
		rng.Read(payloads[i])
		s := 0
		for _, b := range payloads[i] {
			s += int(b)
		}
		want[i] = bcastElems*s + bcastElems*(bcastElems-1)/2
	}
	for i := 0; i < bcastSetups-1; i++ {
		t0 := time.Now()
		err := bcastJob(rc, false, payloads, want, func(*core.Chare, core.Proxy, []*core.Runtime) {
			rc.setup(elapsed(t0))
		})
		rep.attempted += bcastWarmup
		if err != nil {
			rep.fail(1, "bcast-reduce set-up: %v", err)
			return
		}
	}
	var rounds, scaled []float64 // seconds, as measured and at the nominal host speed
	var wrong int64
	var wall float64 // seconds spent in batches of rounds, without the probes between them
	t0 := time.Now()
	err := bcastJob(rc, rc.lay != nil, payloads, want, func(self *core.Chare, arr core.Proxy, rts []*core.Runtime) {
		rc.setup(elapsed(t0))
		var rootBefore int64
		if rc.lay != nil {
			rc.lay.markWindow(0, nil)
			rootBefore = rts[0].BcastSends()
		}
		start := time.Now()
		for len(rounds) == 0 || elapsed(start) < rc.seconds {
			b0 := time.Now()
			for j := 0; j < bcastBatch; j++ {
				k := len(rounds) % bcastPayloads
				var got any
				opSpan(rc, "bcast.round", func() float64 {
					r0 := time.Now()
					f := self.CreateFuture()
					arr.Call("Bcast", payloads[k], f)
					got = f.Get()
					rounds = append(rounds, time.Since(r0).Seconds())
					return 0
				})
				if got != want[k] {
					wrong++
				}
			}
			wall += elapsed(b0)
			f := rc.ref.factor()
			for _, r := range rounds[len(scaled):] {
				scaled = append(scaled, r*f)
			}
		}
		if rc.lay != nil {
			rc.lay.set("core.bcast_root_sends", float64(rts[0].BcastSends()-rootBefore)/float64(len(rounds)), "count")
		}
	})
	rep.attempted += int64(len(rounds)) + bcastWarmup
	if err != nil {
		rep.fail(1, "bcast-reduce: %v", err)
		return
	}
	if wrong > 0 {
		rep.fail(wrong, "bcast-reduce: %d of %d rounds reduced to a wrong sum", wrong, len(rounds))
	}
	if rc.lay != nil {
		rc.lay.markWindow(1, nil)
		rc.lay.ops = float64(len(rounds))
		rc.lay.tracerDetail(wall, bcastNodes)
		for _, n := range []string{"kernel.seq_s", "kernel.seq_steps_per_s", "core.overhead_share"} {
			rc.lay.absent[n] = "a reduction of one int per element has no sequential kernel worth timing"
		}
	}
	// rounds_per_s is one over the median round, as steps_per_s is for the
	// mini-apps: on a shared VM a few rounds stalled by the host would
	// otherwise move the rate of a whole run. The plain count over the
	// time spent in rounds is rounds_per_s.overall.
	m := median(scaled)
	rep.set("rounds_per_s.hostnorm", 1/m, "1/s")
	rep.set("round_p50_ms.hostnorm", 1e3*m, "ms")
	sort.Float64s(rounds)
	rep.set("rounds_per_s", 1/quantile(rounds, 0.5), "1/s")
	rep.set("rounds_per_s.overall", float64(len(rounds))/wall, "1/s")
	rep.set("round_p50_ms", 1e3*quantile(rounds, 0.5), "ms")
	rep.set("round_p99_ms", 1e3*quantile(rounds, 0.99), "ms")
	rep.set("rounds", float64(len(rounds)), "count")
}
