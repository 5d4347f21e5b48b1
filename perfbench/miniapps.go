package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/leanmd"
	"charmgo/internal/stencil"
	"charmgo/internal/transport"
)

// The two mini-apps from the paper run on 2 in-memory nodes × 1 PE. A run
// sets up (a zero-step or one-iteration solve) several times, then solves
// the stated problem repeatedly until its time is up; each solve is one
// sample of time per step, and every solve's output is checked against the
// program's sequential reference.
const (
	miniNodes  = 2
	miniSetups = 9
	minSolves  = 3
)

// leanmdParams is the LeanMD problem: 4³ cells × 20 particles, 100 steps,
// atoms exchanged between cells every 4 steps. The seed sets the initial
// velocity scale within ±10% of the default 0.05.
func leanmdParams(seed int64) leanmd.Params {
	p := leanmd.DefaultParams()
	p.CX, p.CY, p.CZ = 4, 4, 4
	p.PerCell = 20
	p.Steps = 100
	p.InitVel = 0.05 * (0.9 + 0.2*rand.New(rand.NewSource(seed)).Float64())
	return p
}

// stencilParams is the stencil3d problem: a 96³ grid in 4×4×4 blocks, 100
// iterations, no synthetic imbalance. Its initial grid is the program's
// fixed initial condition, so the seed leaves it unchanged.
func stencilParams() stencil.Params {
	return stencil.Params{GridX: 96, GridY: 96, GridZ: 96, BX: 4, BY: 4, BZ: 4, Iters: 100}
}

// miniJob runs one in-memory job of miniNodes × 1 PE: register on every
// node, start nodes 1.. with no entry, and run main on node 0. A traced
// job gets tracers, a metrics registry and decorated endpoints.
func miniJob(rc *runCtx, traced bool, register func(*core.Runtime), main func(cfg core.Config) error) error {
	nw := transport.NewMemNetwork(miniNodes)
	defer func() {
		for i := 0; i < miniNodes; i++ {
			_ = nw.Endpoint(i).Close()
		}
	}()
	cfg := func(i int) core.Config { return core.Config{PEs: 1, Transport: nw.Endpoint(i)} }
	if traced {
		j := rc.lay.startJob(miniNodes, 1)
		defer rc.lay.endJob(j)
		cfg = func(i int) core.Config { return rc.lay.config(j, i, 1, nw.Endpoint(i)) }
	}
	var wg sync.WaitGroup
	for i := 1; i < miniNodes; i++ {
		rt := core.NewRuntime(cfg(i))
		register(rt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Start(nil)
		}()
	}
	err := main(cfg(0))
	wg.Wait()
	return err
}

// opSpan runs f as one operation (a solve or a round); when traced, it
// records a span named name under the run, with the transport spans of
// the operation under it. f returns how many seconds at its end the
// program itself timed (a mini-app's array creation and steps; 0 for
// none), recorded as a child span name+".steps": the solve's self time is
// then runtime boot and shutdown. Single steps are not visible from
// outside the program.
func opSpan(rc *runCtx, name string, f func() (inner float64)) {
	if rc.lay == nil {
		f()
		return
	}
	l := rc.lay
	id := l.spans.newID()
	parent := l.op.Swap(id)
	t0 := l.spans.now()
	inner := f()
	t1 := l.spans.now()
	l.spans.addID(id, name, parent, id, t0, t1)
	if inner > 0 {
		l.spans.add(name+".steps", id, id, t1-int64(inner*1e9), t1)
	}
	l.op.Store(parent)
}

// miniLoop is the shared measurement loop: set up, then solve until the
// time is up, recording seconds per step of every solve, as measured and
// at the nominal host speed.
func miniLoop(rc *runCtx, steps int, setup func() error, solve func() (wall float64, err error)) (perStep, scaled []float64) {
	rep := rc.rep
	for i := 0; i < miniSetups; i++ {
		t0 := time.Now()
		err := setup()
		rc.setup(elapsed(t0))
		rep.attempted++
		if err != nil {
			rep.fail(1, "set-up: %v", err)
			return nil, nil
		}
	}
	if rc.lay != nil {
		rc.lay.markWindow(0, nil)
	}
	start := time.Now()
	for len(perStep) < minSolves || elapsed(start) < rc.seconds {
		runtime.GC() // each solve starts from a collected heap
		wall, err := solve()
		if err != nil {
			rep.attempted++
			rep.fail(1, "solve: %v", err)
			break
		}
		perStep = append(perStep, wall/float64(steps))
		scaled = append(scaled, rc.ref.scale(wall)/float64(steps))
	}
	if rc.lay != nil {
		rc.lay.markWindow(1, nil)
		rc.lay.ops = float64(len(perStep) * steps)
		rc.lay.tracerDetail(elapsed(start), miniNodes)
	}
	return perStep, scaled
}

// stepMetrics reports steps_per_s (one over the median step) and the
// per-step latency percentiles, as measured and at the nominal host speed.
func stepMetrics(rep *report, perStep, scaled []float64) {
	if len(perStep) == 0 {
		return
	}
	s := sorted(perStep)
	rep.set("steps_per_s", 1/quantile(s, 0.5), "1/s")
	rep.set("step_p50_ms", 1e3*quantile(s, 0.5), "ms")
	rep.set("step_p99_ms", 1e3*quantile(s, 0.99), "ms")
	rep.set("solves", float64(len(s)), "count")
	m := median(scaled)
	rep.set("steps_per_s.hostnorm", 1/m, "1/s")
	rep.set("step_p50_ms.hostnorm", 1e3*m, "ms")
}

// relErr is |a-b| relative to the larger magnitude (absolute below 1).
func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func runLeanMD(rc *runCtx) {
	p := leanmdParams(rc.seed)
	rep := rc.rep
	run := func(p leanmd.Params, traced bool) (res leanmd.Result, err error) {
		err = miniJob(rc, traced, leanmd.Register, func(cfg core.Config) error {
			res, err = leanmd.RunCharm(p, cfg)
			return err
		})
		return res, err
	}
	var results []leanmd.Summary
	zero := p
	zero.Steps = 0
	perStep, scaled := miniLoop(rc, p.Steps,
		func() error { _, err := run(zero, false); return err },
		func() (float64, error) {
			var res leanmd.Result
			var err error
			opSpan(rc, "leanmd.solve", func() float64 {
				res, err = run(p, rc.lay != nil)
				return res.WallSeconds
			})
			if err == nil {
				results = append(results, res.Summary)
			}
			return res.WallSeconds, err
		})
	rep.attempted += int64(len(perStep))

	t0 := time.Now()
	want, err := leanmd.RunSequential(p)
	seq := elapsed(t0)
	if err != nil {
		rep.fail(1, "leanmd sequential reference: %v", err)
		return
	}
	for i, got := range results {
		if got.Particles != p.NumCells()*p.PerCell {
			rep.fail(1, "leanmd solve %d: %d particles, want %d", i, got.Particles, p.NumCells()*p.PerCell)
		} else if e := relErr(got.KE, want.KE); e > 1e-9 {
			rep.fail(1, "leanmd solve %d: KE %.12g, sequential %.12g (rel err %.2g)", i, got.KE, want.KE, e)
		}
	}
	stepMetrics(rep, perStep, scaled)
	kernelDetail(rc, seq, p.Steps, perStep)
}

func runStencil(rc *runCtx) {
	p := stencilParams()
	rep := rc.rep
	run := func(p stencil.Params, traced bool) (res stencil.Result, err error) {
		err = miniJob(rc, traced, stencil.Register, func(cfg core.Config) error {
			rt := core.NewRuntime(cfg)
			stencil.Register(rt)
			rt.Start(stencil.Entry(p, &res))
			return nil
		})
		return res, err
	}
	var sums []float64
	one := p
	one.Iters = 1
	perStep, scaled := miniLoop(rc, p.Iters,
		func() error { _, err := run(one, false); return err },
		func() (float64, error) {
			var res stencil.Result
			var err error
			opSpan(rc, "stencil.solve", func() float64 {
				res, err = run(p, rc.lay != nil)
				return res.WallSeconds
			})
			if err == nil {
				sums = append(sums, res.Checksum)
			}
			return res.WallSeconds, err
		})
	rep.attempted += int64(len(perStep))

	t0 := time.Now()
	want, err := stencil.RunSequential(p)
	seq := elapsed(t0)
	if err != nil {
		rep.fail(1, "stencil sequential reference: %v", err)
		return
	}
	for i, got := range sums {
		if e := relErr(got, want); e > 1e-9 {
			rep.fail(1, "stencil solve %d: checksum %.12g, sequential %.12g (rel err %.2g)", i, got, want, e)
		}
	}
	stepMetrics(rep, perStep, scaled)
	kernelDetail(rc, seq, p.Iters, perStep)
}

// kernelDetail reports the sequential kernel and the runtime's overhead
// share against it: 1 - seq / (PEs × parallel solve time).
func kernelDetail(rc *runCtx, seq float64, steps int, perStep []float64) {
	if rc.lay == nil || len(perStep) == 0 {
		return
	}
	l := rc.lay
	l.absent["core.bcast_root_sends"] = "the mini-apps broadcast only their start message per solve; root sends are measured on bcast-reduce"
	l.set("kernel.seq_s", seq, "s")
	l.set("kernel.seq_steps_per_s", float64(steps)/seq, "1/s")
	solve := median(perStep) * float64(steps)
	l.set("core.overhead_share", 1-seq/(miniNodes*solve), "ratio")
}
