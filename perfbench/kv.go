package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/elastic"
)

// The kv-open workload drives the kvservice serving stack (elastic.Service,
// 3 in-process nodes × 2 PEs, 24 shards, failure detectors on, as
// cmd/kvbench runs it) with an open loop: 50/50 Put/Get over a seeded key
// stream, arriving on an absolute schedule. Each generator wakeup issues
// every request that has fallen due, and every request is timed from its
// due time, so a stall shows as latency on the requests behind it instead
// of silently lowering the offered rate. Between the fixed rates and the
// rate ladder, closed-loop clients measure the service's throughput at
// saturation, the one kv-open number that the CPU bounds.
const (
	kvNodes, kvPEs, kvShards = 3, 2, 24
	kvKeys                   = 8192
	kvLowRate                = 5000  // req/s
	kvHighRate               = 30000 // req/s
	// kvSLO is the p99 latency limit of the rate ladder. It was set once
	// from sizing runs on a shared 2-vCPU VM, where the p99 of a whole
	// fixed-rate step measured 2-10ms at the low rate and 4-27ms at the
	// high rate: far enough above both that only a saturated service (or
	// a stalled generator) misses it.
	kvSLO = 50 * time.Millisecond
	// kvSetups is how many times a run boots the cluster; setup_s is the
	// median, the last cluster serves the run.
	kvSetups = 9
	// kvWarmers bounds the concurrency of warm-up and read-back.
	kvWarmers = 32
	// kvWindow is the number of consecutive requests (in due order) per
	// window. Percentiles are taken per window and then across windows: on
	// a shared VM the host stalls for milliseconds at a time, in episodes
	// that last seconds to minutes, and the generator's timer wakes late
	// with it. The p99 reported is the median window's, so a single stall
	// does not decide it while saturation, which raises every window,
	// does; req_p50_ms.*.best_windows is the p50 of the lower-decile
	// window, what the service gives when the host leaves it alone. 1000
	// requests leave 10 beyond each window's p99.
	kvWindow = 1000
	// kvStep is the length of one ladder step.
	kvStep = 250 * time.Millisecond
	// kvSatStep is the length of one closed-loop saturation step; the
	// host's speed is probed between steps (see hostRef).
	kvSatStep = 500 * time.Millisecond
	// kvClients is the closed-loop client count of the saturation steps:
	// enough outstanding requests to keep every PE busy, and far below the
	// admission gate's watermarks, so none is delayed or shed.
	kvClients = 64
)

// kvLadder is the fixed ladder of offered rates the SLO search walks:
// geometric, 5% apart, from 10k to about 200k req/s.
var kvLadder = func() []float64 {
	var out []float64
	for r := 10000.0; r < 205000; r *= 1.05 {
		out = append(out, math.Round(r/100)*100)
	}
	return out
}()

// kvOp is one generated request: a key index and whether it writes.
type kvOp struct {
	key int32
	put bool
}

// kvReq is one request's record; times are nanoseconds since its phase
// started. The generator writes due, the request goroutine the rest.
type kvReq struct {
	due, issue, done int64
	status           int8
}

// Request outcomes.
const (
	kvOK int8 = iota
	kvErr
	kvShed
	kvWrong
)

// kvRun is one kv-open run's state.
type kvRun struct {
	rc     *runCtx
	svc    *elastic.Service
	keys   []string
	vals   []string
	stream []kvOp
	next   int          // stream cursor of the open loop
	cursor atomic.Int64 // stream cursor of the closed-loop clients
}

// phase is what one fixed-rate step measured.
type phase struct {
	rate            float64
	reqs            []kvReq
	t0              time.Time
	wall            time.Duration // issue window
	maxBacklog      int           // most requests due but not yet issued at a wakeup
	inflightEnd     int64         // requests outstanding when the last one was issued
	errs, shed, bad int64
	lat, lag, call  []float64     // sorted ns: due→done (failures count as +Inf), due→issue, issue→done
	latP99, lagP99  float64       // ns: median over windows of each window's p99
	latP50Best      float64       // ns: lower decile over windows of each window's p50
	passed          bool          // a ladder step that was valid and met the SLO
	cpu             time.Duration // CPU time the whole process used from first issue to last reply
}

func (p *phase) failed() int64 { return p.errs + p.shed + p.bad }

// release drops the per-request records once a step is summarized.
func (p *phase) release() { p.reqs, p.lat, p.lag, p.call = nil, nil, nil, nil }

// describe summarizes a ladder step for the reader.
func (p *phase) describe() string {
	verdict := "pass"
	switch {
	case !p.healthy():
		verdict = "invalid (generator lagged)"
	case !p.meetsSLO():
		verdict = "fail"
	}
	return fmt.Sprintf("%.0f req/s: %s; p99 %.2fms, lag p99 %.2fms (median window), max backlog %d, in flight at end %d, failed %d of %d",
		p.rate, verdict, msOf(quantile(p.lat, 0.99)), msOf(p.lagP99), p.maxBacklog, p.inflightEnd, p.failed(), len(p.reqs))
}

// healthy reports whether the generator kept up: a step whose generator
// lagged measured the generator, not the service, and is invalid. The
// limit is a quarter of the SLO, so lag alone can never be what breaks it.
func (p *phase) healthy() bool { return p.lagP99 <= float64(kvSLO)/4 }

// meetsSLO applies the ladder's three conditions to the whole step: p99
// (failures counting as missing it) within the limit, at most 0.1% of
// requests failed, and no growing backlog — when the last request was
// issued, no more than one SLO's worth of arrivals was still outstanding.
func (p *phase) meetsSLO() bool {
	return quantile(p.lat, 0.99) <= float64(kvSLO) &&
		p.failed()*1000 <= int64(len(p.reqs)) &&
		float64(p.inflightEnd) <= p.rate*kvSLO.Seconds()
}

func newKVRun(rc *runCtx) *kvRun {
	k := &kvRun{rc: rc, keys: make([]string, kvKeys), vals: make([]string, kvKeys)}
	for i := range k.keys {
		k.keys[i] = fmt.Sprintf("key-%05d", i)
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d", rc.seed, i)
		k.vals[i] = fmt.Sprintf("v%016x", h.Sum64())
	}
	rng := rand.New(rand.NewSource(rc.seed))
	k.stream = make([]kvOp, 1<<16)
	for i := range k.stream {
		k.stream[i] = kvOp{key: int32(rng.Intn(kvKeys)), put: rng.Intn(2) == 0}
	}
	return k
}

func runKV(rc *runCtx) {
	k := newKVRun(rc)
	rep := rc.rep
	for i := 0; i < kvSetups; i++ {
		t0 := time.Now()
		svc, err := k.boot()
		if err != nil {
			rep.fail(1, "kv-open: boot: %v", err)
			return
		}
		k.svc = svc
		k.eachKey(func(i int) error { return svc.Put(k.keys[i], k.vals[i]) }, "warm-up")
		rc.setup(elapsed(t0))
		if i < kvSetups-1 {
			svc.Close()
		}
	}
	defer k.svc.Close()
	if lay := rc.lay; lay != nil {
		lay.watchKV(k.svc)
		lay.markWindow(0, kvMsgCounts(k.svc))
	}

	// Time budget: 10% for the low rate, 30% for the high rate, 30% for
	// closed-loop saturation in steps of kvSatStep, the rest for the
	// ladder in steps of kvStep. peak_rss_mb is read after the fixed
	// rates: saturation and overload steps hold a backlog whose size
	// depends on how the clients and the host happened to interleave, or
	// how far above capacity a ladder step landed, which is noise, not
	// program memory.
	sec := func(share float64) time.Duration { return time.Duration(rc.seconds * share * float64(time.Second)) }
	low := k.fixedRate("low", kvLowRate, sec(0.1))
	high := k.fixedRate("high", kvHighRate, sec(0.3))
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	saturated := k.saturate(sec(0.3))
	ladder, rps := k.capacity(int(sec(0.3) / kvStep))
	if lay := rc.lay; lay != nil {
		lay.kvDetail(k.svc, append([]*phase{low, high}, ladder...), saturated)
	}
	k.eachKey(func(i int) error {
		v, err := k.svc.Get(k.keys[i])
		if err == nil && v != k.vals[i] {
			return fmt.Errorf("key %s read back %q, want %q", k.keys[i], v, k.vals[i])
		}
		return err
	}, "read-back")

	var passed, invalid, failed float64
	for _, p := range ladder {
		switch {
		case !p.healthy():
			invalid++
		case p.passed:
			passed++
		}
		failed += float64(p.failed())
	}
	if passed == 0 {
		rep.fail(1, "kv-open: no ladder step met the %v p99 SLO with a healthy generator", kvSLO)
	} else {
		rep.set("max_rps_at_slo", rps, "req/s")
	}
	rep.set("ladder.steps", float64(len(ladder)), "count")
	rep.set("ladder.invalid_steps", invalid, "count")
	rep.set("ladder.failed_requests", failed, "count")
	for _, p := range []*phase{low, high} {
		tag := "low"
		if p == high {
			tag = "high"
		}
		rep.set("req_p50_ms."+tag, msOf(quantile(p.lat, 0.5)), "ms")
		rep.set("req_p99_ms."+tag, msOf(p.latP99), "ms")
		rep.set("req_p99_ms."+tag+".whole", msOf(quantile(p.lat, 0.99)), "ms")
		rep.set("req_p50_ms."+tag+".best_windows", msOf(p.latP50Best), "ms")
		rep.set("loadgen.lag_ms_p99."+tag, msOf(p.lagP99), "ms")
		rep.set("req_per_cpu_s."+tag, float64(len(p.reqs))/p.cpu.Seconds(), "req/s")
	}
}

// saturate measures the service's throughput with kvClients closed-loop
// clients, each issuing its next request as soon as the last one
// returned, in steps of kvSatStep for about d. Every step's request rate
// is also scaled to the nominal host speed (see hostRef): the service is
// CPU-bound here, so its throughput follows the host's speed, unlike the
// open loop's latency, which waits mostly on timers and wake-ups. It
// returns how many requests it issued.
func (k *kvRun) saturate(d time.Duration) (issued int64) {
	rep := k.rc.rep
	var rates, scaled []float64
	k.rc.ref.reprobe()
	for len(rates) == 0 || time.Duration(len(rates))*kvSatStep < d {
		runtime.GC()
		var n, errs, shed, bad atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < kvClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < kvSatStep {
					op := k.stream[int(k.cursor.Add(1))%len(k.stream)]
					var err error
					if op.put {
						err = k.svc.Put(k.keys[op.key], k.vals[op.key])
					} else {
						var v string
						if v, err = k.svc.Get(k.keys[op.key]); err == nil && v != k.vals[op.key] {
							bad.Add(1)
						}
					}
					switch {
					case errors.Is(err, elastic.ErrOverloaded):
						shed.Add(1)
					case err != nil:
						errs.Add(1)
					}
					n.Add(1)
				}
			}()
		}
		wg.Wait()
		if lay := k.rc.lay; lay != nil {
			lay.spans.add("kv.saturated", lay.root, 0, lay.spans.at(t0), lay.spans.now())
		}
		issued += n.Load()
		rate := float64(n.Load()) / elapsed(t0)
		rates = append(rates, rate)
		scaled = append(scaled, rate/k.rc.ref.factor())
		rep.attempted += n.Load()
		if f := errs.Load() + shed.Load(); f > 0 {
			rep.failed += f
			rep.notes = append(rep.notes, fmt.Sprintf("saturation: %d errors, %d shed of %d requests", errs.Load(), shed.Load(), n.Load()))
		}
		if b := bad.Load(); b > 0 {
			rep.fail(b, "kv-open: %d reads returned a wrong value under saturation", b)
		}
	}
	rep.set("req_per_s.saturated", median(rates), "req/s")
	rep.set("req_per_s.saturated.hostnorm", median(scaled), "req/s")
	return issued
}

// capacity finds max_rps_at_slo in n ladder steps. Near the knee whether
// one short step passes is a coin flip — a single stall of the host can
// build enough backlog for the admission gate to shed — so the answer is
// the rung where steps pass half the time: a binary search for the
// highest passing rung locates the knee, then a staircase moves one rung
// up after each passing step and one rung down after each other step,
// and the result is the median rung the staircase visited. A step passes
// when it is valid (the generator kept up) and meets the SLO.
//
// Ladder steps probe beyond capacity on purpose, so their requests stay
// out of attempted and failed_share (each step line reports its own); a
// wrong value read on any step is a failed check all the same.
func (k *kvRun) capacity(n int) (steps []*phase, rps float64) {
	step := func(i int) bool {
		p := k.run(kvLadder[i], kvStep)
		steps = append(steps, p)
		k.countWrong(p)
		k.rc.rep.notes = append(k.rc.rep.notes, p.describe())
		pass := p.healthy() && p.meetsSLO()
		p.passed = pass
		if k.rc.lay == nil {
			p.release() // an untraced run keeps only the step's summary
		}
		return pass
	}
	lo, hi := -1, len(kvLadder)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; step(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	pos := max(lo, 0)
	var visited []float64
	for len(steps) < n {
		visited = append(visited, kvLadder[pos])
		if step(pos) {
			pos = min(pos+1, len(kvLadder)-1)
		} else {
			pos = max(pos-1, 0)
		}
	}
	if len(visited) == 0 {
		return steps, kvLadder[pos]
	}
	return steps, median(visited)
}

// boot starts a kvservice cluster configured as cmd/kvbench runs it; a
// traced run adds the metrics registry and introspection sampling.
func (k *kvRun) boot() (*elastic.Service, error) {
	cfg := elastic.ServiceConfig{
		Nodes: kvNodes, PEs: kvPEs, Shards: kvShards,
		Detectors:         true,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspicionTimeout:  10 * time.Second,
	}
	if lay := k.rc.lay; lay != nil {
		cfg.Metrics = lay.reg
		cfg.SampleInterval = lay.sampleInterval
	}
	return elastic.NewService(cfg)
}

// eachKey runs f over every key with bounded concurrency (warm-up and
// read-back); each call is one attempted operation.
func (k *kvRun) eachKey(f func(i int) error, what string) {
	rep := k.rc.rep
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < kvWarmers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= kvKeys {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					rep.fail(1, "kv-open %s: %v", what, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rep.attempted += kvKeys
}

// fixedRate runs one fixed-rate phase whose latencies are reported.
// Failed requests count in failed_share (and as missing every latency
// limit); a wrong value or an unhealthy generator makes the run incorrect.
func (k *kvRun) fixedRate(tag string, rate float64, d time.Duration) *phase {
	rep := k.rc.rep
	runtime.GC() // the phase starts from a collected heap, whatever ran before
	p := k.run(rate, d)
	rep.attempted += int64(len(p.reqs))
	k.countWrong(p)
	if n := p.errs + p.shed; n > 0 {
		rep.failed += n
		rep.notes = append(rep.notes, fmt.Sprintf("%s rate: %d errors, %d shed of %d requests", tag, p.errs, p.shed, len(p.reqs)))
	}
	if !p.healthy() {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"kv-open %s rate: generator unhealthy (lag p99 %.2fms): step invalid", tag, msOf(p.lagP99)))
	}
	return p
}

// countWrong charges wrong read values as failures.
func (k *kvRun) countWrong(p *phase) {
	if p.bad > 0 {
		k.rc.rep.fail(p.bad, "kv-open: %d reads returned a wrong value at %.0f req/s", p.bad, p.rate)
	}
}

// run offers rate req/s for d on an absolute schedule — request i is due
// at i/rate — and waits for every request to finish.
func (k *kvRun) run(rate float64, d time.Duration) *phase {
	n := int(rate * d.Seconds())
	p := &phase{rate: rate, reqs: make([]kvReq, n)}
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = k.stream[k.next%len(k.stream)]
		k.next++
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	interval := 1e9 / rate
	issued := 0
	for issued < n {
		due := int(float64(time.Since(t0).Nanoseconds())/interval) + 1
		if due > n {
			due = n
		}
		if b := due - issued; b > p.maxBacklog {
			p.maxBacklog = b
		}
		for ; issued < due; issued++ {
			r := &p.reqs[issued]
			r.due = int64(float64(issued) * interval)
			wg.Add(1)
			go k.do(r, ops[issued], t0, &wg, &done)
		}
		if wait := time.Duration(float64(issued)*interval) - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
	}
	p.t0, p.wall = t0, time.Since(t0)
	p.inflightEnd = int64(n) - done.Load()
	wg.Wait()
	p.cpu = cpuTime() - c0
	p.summarize()
	return p
}

// do issues one request and records its outcome.
func (k *kvRun) do(r *kvReq, op kvOp, t0 time.Time, wg *sync.WaitGroup, done *atomic.Int64) {
	defer wg.Done()
	r.issue = time.Since(t0).Nanoseconds()
	var err error
	if op.put {
		err = k.svc.Put(k.keys[op.key], k.vals[op.key])
	} else {
		var v string
		if v, err = k.svc.Get(k.keys[op.key]); err == nil && v != k.vals[op.key] {
			r.status = kvWrong
		}
	}
	r.done = time.Since(t0).Nanoseconds()
	switch {
	case errors.Is(err, elastic.ErrOverloaded):
		r.status = kvShed
	case err != nil:
		r.status = kvErr
	}
	done.Add(1)
}

// summarize fills the phase's counts, sorted latency samples and
// per-window tail percentiles.
func (p *phase) summarize() {
	p.lat = make([]float64, 0, len(p.reqs))
	p.lag = make([]float64, 0, len(p.reqs))
	p.call = make([]float64, 0, len(p.reqs))
	for _, r := range p.reqs {
		p.lag = append(p.lag, float64(r.issue-r.due))
		switch r.status {
		case kvOK:
			p.lat = append(p.lat, float64(r.done-r.due))
			p.call = append(p.call, float64(r.done-r.issue))
			continue
		case kvErr:
			p.errs++
		case kvShed:
			p.shed++
		case kvWrong:
			p.bad++
		}
		p.lat = append(p.lat, math.Inf(1)) // a failed request misses every limit
	}
	p.latP99, p.lagP99 = windowQuantile(p.lat, 0.99, 0.5), windowQuantile(p.lag, 0.99, 0.5)
	p.latP50Best = windowQuantile(p.lat, 0.5, 0.1)
	sort.Float64s(p.lat)
	sort.Float64s(p.lag)
	sort.Float64s(p.call)
}

// windowQuantile splits xs (in due order) into windows of kvWindow
// requests, takes each window's q-quantile, and returns the over-quantile
// of those; fewer than two windows' worth of samples falls back to the
// q-quantile of all.
func windowQuantile(xs []float64, q, over float64) float64 {
	if len(xs) < 2*kvWindow {
		return quantile(sorted(xs), q)
	}
	var ps []float64
	for i := 0; i+kvWindow <= len(xs); i += kvWindow {
		ps = append(ps, quantile(sorted(xs[i:i+kvWindow]), q))
	}
	return quantile(sorted(ps), over)
}

// kvRuntimes returns the service's node runtimes.
func kvRuntimes(svc *elastic.Service) []*core.Runtime {
	out := make([]*core.Runtime, kvNodes)
	for i := range out {
		out[i] = svc.Runtime(i)
	}
	return out
}

// kvMsgCounts sums MsgCounts and BcastSends over every node of the
// cluster (the metrics registry only reaches node 0).
func kvMsgCounts(svc *elastic.Service) map[string]int64 {
	c := map[string]int64{}
	for _, rt := range kvRuntimes(svc) {
		local, wire := rt.MsgCounts()
		c["msgs_local"] += local
		c["msgs_wire"] += wire
		c["bcast_root_sends"] += rt.BcastSends()
	}
	return c
}

// kvDetail records kv-open's own layer metrics — generator lag and front
// end call time at the high rate, admission counters, root broadcast sends
// — and one span tree per sampled request. Per-request counts divide by
// every request of the rate steps plus the saturated requests the
// saturation steps issued.
func (l *layers) kvDetail(svc *elastic.Service, phases []*phase, saturated int64) {
	l.markWindow(1, kvMsgCounts(svc))
	high := phases[1]
	l.set("loadgen.lag_ms_p50", msOf(quantile(high.lag, 0.5)), "ms")
	l.set("loadgen.lag_ms_p99", msOf(quantile(high.lag, 0.99)), "ms")
	l.set("elastic.call_us_p50", quantile(high.call, 0.5)/1e3, "us")
	l.set("elastic.call_us_p99", quantile(high.call, 0.99)/1e3, "us")
	l.set("elastic.shed", float64(svc.Gate().Rejected()), "count")
	l.set("elastic.delayed", float64(svc.Gate().Delayed()), "count")
	ops := saturated
	for _, p := range phases {
		ops += int64(len(p.reqs))
		l.phaseSpans(p)
	}
	l.ops = float64(ops)
	l.set("core.bcast_root_sends", float64(l.window[1]["bcast_root_sends"]-l.window[0]["bcast_root_sends"])/l.ops, "count")
	for _, n := range []string{"transport.send_us_mean", "transport.handler_us_mean", "transport.busy_share"} {
		l.absent[n] = "elastic.ServiceConfig accepts no transport, so the service's endpoints cannot be decorated"
	}
	for _, n := range []string{"core.em_us.<Chare>.<Method>", "core.queue_wait_us_p50", "core.queue_wait_us_p99", "core.pe_idle_share_mean"} {
		l.absent[n] = "elastic.ServiceConfig accepts no tracer; core.em_us_mean and the PE shares come from introspection samples"
	}
	for _, n := range []string{"kernel.seq_s", "kernel.seq_steps_per_s", "core.overhead_share"} {
		l.absent[n] = "the service has no compute kernel to run sequentially"
	}
}

// kvSpanStride samples one request in this many into the span log.
const kvSpanStride = 64

// phaseSpans records a rate step as a span with, for every sampled
// request, a request span (due to reply) over its generator wait (due to
// issue) and its front-end call (issue to reply), all sharing the
// request's id.
func (l *layers) phaseSpans(p *phase) {
	s := l.spans
	base := s.at(p.t0)
	ph := s.add(fmt.Sprintf("kv.rate.%.0f", p.rate), l.root, 0, base, base+p.wall.Nanoseconds())
	for i := 0; i < len(p.reqs); i += kvSpanStride {
		r := p.reqs[i]
		req := s.newID()
		s.addID(req, "kv.request", ph, req, base+r.due, base+r.done)
		s.add("loadgen.wait", req, req, base+r.due, base+r.issue)
		s.add("elastic.call", req, req, base+r.issue, base+r.done)
	}
}
