package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/elastic"
	"charmgo/internal/introspect"
	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// perLayer lists the per-layer metrics every workload measures in its
// traced run; they are the traced run's contract result. Counts marked
// "per op" are divided by the run's operations: requests (kv-open),
// timesteps (leanmd, stencil) or rounds (bcast-reduce).
var perLayer = []struct{ name, unit string }{
	{"loadgen.timer_floor_us", "us"},
	{"core.sends_local", "count"},         // per op
	{"core.sends_wire", "count"},          // per op
	{"core.collective_bcasts", "count"},   // per op
	{"core.collective_relays", "count"},   // per op
	{"core.collective_partials", "count"}, // per op
	{"core.dispatch_generated_share", "ratio"},
	{"core.steals", "count"},
	{"core.mailbox_depth_p99", "count"},
	{"core.pe_busy_share_max", "ratio"},
	{"core.em_us_mean", "us"},
	{"transport.frames_out", "count"}, // per op
	{"transport.bytes_out", "B"},      // per op
	{"transport.msgs_per_frame", "ratio"},
	{"ser.gob_share", "ratio"},
	{"ser.bytes_per_wire_msg", "B"},
	{"trace.overhead_share", "ratio"},
}

// ---- spans ----

// span is one benchmark-side interval. Spans of one request, round or
// solve share Req; Parent is the span that caused this one (0 for the run).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It holds at most max
// spans and counts the rest as dropped. A nil *spanLog only keeps time.
type spanLog struct {
	t0      time.Time
	max     int
	mu      sync.Mutex
	spans   []span
	dropped int64
	ids     atomic.Int64
}

// spanEpoch is the clock a nil spanLog reads.
var spanEpoch = time.Now()

func newSpanLog(max int) *spanLog { return &spanLog{t0: time.Now(), max: max} }

func (l *spanLog) now() int64 {
	if l == nil {
		return time.Since(spanEpoch).Nanoseconds()
	}
	return time.Since(l.t0).Nanoseconds()
}

// at converts a wall-clock time to the log's clock.
func (l *spanLog) at(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

// newID reserves a span id (for a span whose children start before it
// ends).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a span and returns its id.
func (l *spanLog) add(name string, parent, req, start, end int64) int64 {
	if l == nil {
		return 0
	}
	return l.addID(l.newID(), name, parent, req, start, end)
}

// addID records a span under an id from newID.
func (l *spanLog) addID(id int64, name string, parent, req, start, end int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.max {
		l.dropped++
		return id
	}
	l.spans = append(l.spans, span{id, parent, req, name, start, end})
	return id
}

// selfTime is one span name's aggregate: count, total duration, and self
// time — duration minus the part of it the span's children cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates the log by span name.
func (l *spanLog) selfTimes() map[string]selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range l.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]selfTime{}
	for _, s := range l.spans {
		dur := s.End - s.Start
		covered := union(kids[s.ID], s.Start, s.End)
		st := out[s.Name]
		st.Count++
		st.TotalMS += msOf(float64(dur))
		st.SelfMS += msOf(float64(dur - covered))
		out[s.Name] = st
	}
	return out
}

// union returns how much of [lo, hi] the intervals cover.
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// ---- the traced run ----

// layers collects one traced run's per-layer measurements from outside the
// modules: metrics registries, tracers, the transport decorator, mailbox
// depth polling, introspection samples and spans.
type layers struct {
	spans          *spanLog
	root           int64        // span id of the whole run
	op             atomic.Int64 // span id of the operation in progress
	tst            transportStats
	sampleInterval time.Duration

	reg *metrics.Registry // kv-open: node 0's registry for the whole run

	mu      sync.Mutex
	cur     *job                  // the job whose mailboxes the poller reads
	kv      *elastic.Service      // kv-open's cluster, once booted
	counts  map[string]int64      // registry counters summed over finished jobs
	methods map[string]*methodAgg // entry-method time by Chare.Method (tracer)
	ems     methodAgg             // every entry method (tracer or introspection)
	waits   []float64             // queue waits (ns) from tracer Recv events
	busy    map[int]*peAgg
	depth   []float64
	dropped uint64
	seen    map[[2]int64]bool // introspection samples folded, by (node, seq)

	values map[string]metric // workload-specific layer metrics
	absent map[string]string // named layer metrics a workload cannot measure, and why
	ops    float64           // operations the per-op counts divide by
	window [2]map[string]int64

	stop chan struct{}
	done chan struct{}
}

type methodAgg struct {
	count int
	total time.Duration
}

// peAgg accumulates one PE's busy, idle and observed time.
type peAgg struct{ busy, idle, window int64 }

func newLayers() *layers {
	l := &layers{
		spans:          newSpanLog(200000),
		sampleInterval: 20 * time.Millisecond,
		reg:            metrics.NewRegistry(),
		counts:         map[string]int64{},
		methods:        map[string]*methodAgg{},
		busy:           map[int]*peAgg{},
		seen:           map[[2]int64]bool{},
		values:         map[string]metric{},
		absent:         map[string]string{},
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	go l.poll()
	return l
}

func (l *layers) set(name string, v float64, unit string) { l.values[name] = metric{v, unit} }

// job is one runtime lifetime in a traced run: a solve or the
// bcast-reduce job. Each gets a fresh registry (mailbox gauges bind to the
// runtime that registered them) and one tracer per node.
type job struct {
	reg     *metrics.Registry
	tracers []*trace.Tracer
	nodes   int
}

// startJob prepares a job of n nodes with pes PEs each.
func (l *layers) startJob(n, pes int) *job {
	j := &job{reg: metrics.NewRegistry(), nodes: n * pes}
	for i := 0; i < n; i++ {
		j.tracers = append(j.tracers, trace.New(pes))
	}
	l.mu.Lock()
	l.cur = j
	l.mu.Unlock()
	return j
}

// config returns node i's runtime config in job j, its endpoint wrapped by
// the transport decorator.
func (l *layers) config(j *job, i, pes int, ep transport.Transport) core.Config {
	wrapped, err := wrapEndpoint(ep, &l.tst, l.spans, &l.op)
	if err != nil {
		panic(err) // the benchmark only wraps in-memory endpoints
	}
	return core.Config{PEs: pes, Transport: wrapped, Trace: j.tracers[i], Metrics: j.reg}
}

// registryCounters are the runtime counters the per-layer metrics read.
var registryCounters = []string{
	"charmgo_sends_local_total", "charmgo_sends_wire_total",
	"charmgo_frames_out_total", "charmgo_wire_bytes_out_total",
	"charmgo_decode_hot_total", "charmgo_decode_gob_total",
	"charmgo_dispatch_static_total", "charmgo_dispatch_dynamic_total", "charmgo_dispatch_generated_total",
	"charmgo_collective_bcasts_total", "charmgo_collective_relays_total", "charmgo_collective_partials_total",
	"charmgo_steals_total",
}

func readCounters(reg *metrics.Registry, into map[string]int64) {
	for _, n := range registryCounters {
		if c, ok := reg.Lookup(n).(*metrics.Counter); ok {
			into[n] += c.Value()
		}
	}
}

// endJob folds a finished job's registry and tracers into the run.
func (l *layers) endJob(j *job) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == j {
		l.cur = nil
	}
	readCounters(j.reg, l.counts)
	for node, tr := range j.tracers {
		l.foldTracer(node, tr)
	}
}

// foldTracer adds one node's events: entry-method time per method and per
// PE, idle time, and queue waits. A PE's observed window starts at its
// first event still in the tracer's ring, so busy and idle shares are
// taken over what the ring kept.
func (l *layers) foldTracer(node int, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	l.dropped += tr.Dropped()
	pes := tr.NumPEs()
	first := map[int]time.Duration{}
	for _, e := range tr.Snapshot() {
		if _, ok := first[e.PE]; !ok {
			first[e.PE] = e.At
		}
		pe := l.pe(node*pes + e.PE)
		switch e.Kind {
		case trace.EvEM:
			pe.busy += int64(e.Dur)
			l.ems.count++
			l.ems.total += e.Dur
			key := e.Chare + "." + e.Method
			m := l.methods[key]
			if m == nil {
				m = &methodAgg{}
				l.methods[key] = m
			}
			m.count++
			m.total += e.Dur
		case trace.EvIdle:
			pe.idle += int64(e.Dur)
		case trace.EvRecv:
			l.waits = append(l.waits, float64(e.Dur))
		}
	}
	end := tr.Since()
	for p, at := range first {
		l.pe(node*pes + p).window += int64(end - at)
	}
}

func (l *layers) pe(i int) *peAgg {
	a := l.busy[i]
	if a == nil {
		a = &peAgg{}
		l.busy[i] = a
	}
	return a
}

// watchKV points the poller at the kv-open cluster: mailbox depth on every
// node and the introspection samples node 0 assembles.
func (l *layers) watchKV(svc *elastic.Service) {
	l.mu.Lock()
	l.kv = svc
	l.mu.Unlock()
}

// poll samples mailbox depths (and, for kv-open, introspection windows)
// every millisecond until finish.
func (l *layers) poll() {
	defer close(l.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
		}
		l.mu.Lock()
		if j := l.cur; j != nil {
			for pe := 0; pe < j.nodes; pe++ {
				if f, ok := j.reg.Lookup(fmt.Sprintf("charmgo_mailbox_depth{pe=%q}", fmt.Sprint(pe))).(func() int64); ok {
					l.depth = append(l.depth, float64(f()))
				}
			}
		}
		if svc := l.kv; svc != nil {
			for _, rt := range kvRuntimes(svc) {
				l.depth = append(l.depth, float64(rt.MailboxDepth()))
			}
			if c := svc.Runtime(0).Introspect(); c != nil {
				l.foldIntrospect(c.Snapshot())
			}
		}
		l.mu.Unlock()
	}
}

// foldIntrospect adds every not-yet-seen node sample window to the PE
// aggregates. Introspection measures entry-method (busy) time but not idle
// time.
func (l *layers) foldIntrospect(cs introspect.ClusterSnapshot) {
	for _, nv := range cs.Node {
		key := [2]int64{int64(nv.Node), nv.Seq}
		if nv.Missing || nv.Seq == 0 || l.seen[key] {
			continue
		}
		l.seen[key] = true
		for _, ps := range nv.PEs {
			a := l.pe(ps.PE)
			a.busy += ps.BusyNanos
			a.window += nv.WindowNanos
			l.ems.count += int(ps.EMs)
			l.ems.total += time.Duration(ps.BusyNanos)
		}
	}
}

// markWindow snapshots cumulative counters at the start (i=0) and end
// (i=1) of the measured operations. extra adds counters read elsewhere:
// msgs_local and msgs_wire, when present, are the nodes' MsgCounts and
// take precedence over the registry's send counters for the per-op sends.
func (l *layers) markWindow(i int, extra map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := map[string]int64{}
	for k, v := range l.counts {
		c[k] = v
	}
	if l.kv != nil {
		readCounters(l.reg, c)
	}
	if l.cur != nil {
		readCounters(l.cur.reg, c)
	}
	for k, v := range extra {
		c[k] = v
	}
	l.window[i] = c
}

// finish stops the poller and computes the per-layer metrics.
func (l *layers) finish() map[string]metric {
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	d := func(name string) float64 { return float64(l.window[1][name] - l.window[0][name]) }
	perOp := func(name string) float64 {
		if l.ops <= 0 {
			return 0
		}
		return d(name) / l.ops
	}
	share := func(num float64, den ...float64) float64 {
		t := 0.0
		for _, x := range den {
			t += x
		}
		if t == 0 {
			return 0
		}
		return num / t
	}
	out := map[string]metric{}
	put := func(name string, v float64) {
		for _, p := range perLayer {
			if p.name == name {
				out[name] = metric{v, p.unit}
				return
			}
		}
		panic("perfbench: unknown per-layer metric " + name)
	}
	sends := func(msgs, reg string) float64 {
		if _, ok := l.window[1][msgs]; ok {
			return perOp(msgs)
		}
		return perOp(reg)
	}
	put("core.sends_local", sends("msgs_local", "charmgo_sends_local_total"))
	put("core.sends_wire", sends("msgs_wire", "charmgo_sends_wire_total"))
	put("core.collective_bcasts", perOp("charmgo_collective_bcasts_total"))
	put("core.collective_relays", perOp("charmgo_collective_relays_total"))
	put("core.collective_partials", perOp("charmgo_collective_partials_total"))
	gen := d("charmgo_dispatch_generated_total")
	put("core.dispatch_generated_share", share(gen, gen, d("charmgo_dispatch_static_total"), d("charmgo_dispatch_dynamic_total")))
	put("core.steals", d("charmgo_steals_total"))
	sort.Float64s(l.depth)
	put("core.mailbox_depth_p99", quantile(l.depth, 0.99))

	var busyMax float64
	for _, a := range l.busy {
		if a.window > 0 {
			busyMax = max(busyMax, float64(a.busy)/float64(a.window))
		}
	}
	put("core.pe_busy_share_max", busyMax)
	put("core.em_us_mean", share(float64(l.ems.total)/1e3, float64(l.ems.count)))
	put("transport.frames_out", perOp("charmgo_frames_out_total"))
	put("transport.bytes_out", perOp("charmgo_wire_bytes_out_total"))
	put("transport.msgs_per_frame", share(d("charmgo_sends_wire_total"), d("charmgo_frames_out_total")))
	gob := d("charmgo_decode_gob_total")
	put("ser.gob_share", share(gob, gob, d("charmgo_decode_hot_total")))
	put("ser.bytes_per_wire_msg", share(d("charmgo_wire_bytes_out_total"), d("charmgo_sends_wire_total")))
	return out
}

// tracerDetail adds the tracer-only layer metrics of a mini-app or
// bcast-reduce run: the hottest entry methods, queue wait, and the
// transport decorator's timings over wall seconds of nodes endpoints.
func (l *layers) tracerDetail(wall float64, nodes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type hot struct {
		name string
		m    *methodAgg
	}
	var hs []hot
	for k, m := range l.methods {
		hs = append(hs, hot{k, m})
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].m.total > hs[j].m.total })
	listed := 0
	for _, h := range hs {
		if listed == 4 {
			break
		}
		if strings.HasPrefix(h.name, "mainChare.") {
			continue // the driver's own entry point, not a hot method
		}
		l.set("core.em_us."+h.name, float64(h.m.total.Nanoseconds())/1e3/float64(h.m.count), "us")
		listed++
	}
	for _, n := range []string{"loadgen.lag_ms_p50", "loadgen.lag_ms_p99"} {
		l.absent[n] = "closed loop: each operation is issued when the previous one returns, so no arrival schedule exists"
	}
	for _, n := range []string{"elastic.call_us_p50", "elastic.call_us_p99", "elastic.shed", "elastic.delayed"} {
		l.absent[n] = "no serving front end on this workload"
	}
	var idle float64
	for _, a := range l.busy {
		if a.window > 0 {
			idle += float64(a.idle) / float64(a.window)
		}
	}
	l.set("core.pe_idle_share_mean", idle/float64(max(1, len(l.busy))), "ratio")
	sort.Float64s(l.waits)
	l.set("core.queue_wait_us_p50", quantile(l.waits, 0.5)/1e3, "us")
	l.set("core.queue_wait_us_p99", quantile(l.waits, 0.99)/1e3, "us")
	l.set("trace.dropped_events", float64(l.dropped), "count")
	frames, handled := float64(l.tst.frames.Load()), float64(l.tst.handled.Load())
	if frames > 0 {
		l.set("transport.send_us_mean", float64(l.tst.sendNS.Load())/frames/1e3, "us")
	}
	if handled > 0 {
		l.set("transport.handler_us_mean", float64(l.tst.handledNS.Load())/handled/1e3, "us")
	}
	if wall > 0 && nodes > 0 {
		l.set("transport.busy_share", float64(l.tst.sendNS.Load()+l.tst.handledNS.Load())/1e9/(wall*float64(nodes)), "ratio")
	}
}

// traceReport is the file a traced run writes: every layer metric it
// measured, why named ones are absent, self times per span name, and the
// spans themselves.
type traceReport struct {
	Host      host                `json:"host"`
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Untraced  ownLine             `json:"untraced"`
	Traced    map[string]metric   `json:"traced"`
	Overhead  map[string]float64  `json:"tracing_overhead"`
	PerLayer  map[string]metric   `json:"per_layer"`
	Layers    map[string]metric   `json:"workload_layers"`
	Absent    map[string]string   `json:"absent"`
	SelfTimes map[string]selfTime `json:"self_times"`
	Dropped   int64               `json:"spans_dropped"`
	Spans     []span              `json:"spans"`
}

// runTraced measures w untraced in a child process, then traced here, and
// returns the per-layer contract result.
func runTraced(w workload, seed int64, seconds int, h host) (result, error) {
	untraced, base, err := child(w.name, seed, seconds)
	if err != nil {
		return result{}, fmt.Errorf("untraced run: %w", err)
	}
	lay := newLayers()
	rc := &runCtx{seed: seed, seconds: float64(seconds), lay: lay}
	lay.root = lay.spans.newID()
	lay.op.Store(lay.root)
	rep := runWorkload(w, rc)
	lay.spans.addID(lay.root, "run."+w.name, 0, lay.root, 0, lay.spans.now())
	per := lay.finish()
	per["loadgen.timer_floor_us"] = metric{h.TimerFloorUS, "us"}
	traced := endToEndResult(w, rep)

	over := map[string]float64{}
	for _, e := range endToEnd {
		b, t := base.Metrics[e.name].Value, traced.Metrics[e.name].Value
		over[e.name] = t - b
		if b != 0 {
			over[e.name+"_share"] = (t - b) / b
		}
	}
	// Tracing overhead is the extra time per operation: the rate falls
	// when it rises, so the share is taken on the inverse rate.
	ov := 0.0
	if r := traced.Metrics["rate_per_s"].Value; r > 0 {
		ov = base.Metrics["rate_per_s"].Value/r - 1
	}
	per["trace.overhead_share"] = metric{ov, "ratio"}

	tr := traceReport{
		Host: h, Workload: w.name, Seed: seed,
		Untraced: untraced, Traced: rep.metrics, Overhead: over,
		PerLayer: per, Layers: lay.values, Absent: lay.absent,
		SelfTimes: lay.spans.selfTimes(), Dropped: lay.spans.dropped, Spans: lay.spans.spans,
	}
	path, err := writeTraceReport(tr)
	if err != nil {
		return result{}, err
	}
	emit(map[string]any{"workload": w.name, "seed": seed, "trace_report": path,
		"layers": lay.values, "absent": lay.absent, "self_times": tr.SelfTimes,
		"tracing_overhead": over, "problems": rep.problems})

	res := result{Correct: traced.Correct && base.Correct, Attempted: traced.Attempted, Failed: traced.Failed,
		Metrics: map[string]metric{}}
	for _, p := range perLayer {
		m, ok := per[p.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s missing", p.name)
		}
		res.Metrics[p.name] = m
	}
	return res, nil
}

// writeTraceReport writes the report under .bench_build/perfbench in the
// current directory (the checkout root) and returns its path.
func writeTraceReport(tr traceReport) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", tr.Workload, tr.Seed))
	b, err := json.Marshal(tr)
	if err != nil {
		return "", fmt.Errorf("trace report: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace report: %w", err)
	}
	return path, nil
}
