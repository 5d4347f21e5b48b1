// Command perfbench is charmgo's repository benchmark: four workloads that
// between them cross every layer a message does — the kvservice serving
// stack under open-loop load, the fine-grained LeanMD and coarse-grained
// stencil3d mini-apps from the paper, and a spanning-tree broadcast+reduce.
//
// One run measures one workload for a fixed time in this process, checks
// its outputs, and prints as the last line of standard output
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Build and run it from the root of a checkout with the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload leanmd --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --all --reps 3       # every workload, summary table
//
// With --trace 0 (tracing off) the metrics are the end-to-end ones. Every
// workload reports the same four names, so each row of BENCHMARK.json has
// one meaning per workload. Times that the host's CPU speed sets are
// reported at a nominal host speed: each set-up, solve, batch of rounds or
// saturation step is scaled by how long a fixed reference computation took
// just before and after it (see hostRef), so a shared host's drifting speed
// cancels out while the program's own speed does not. The measured values
// are on the line before the result.
//
//	setup_s      median of several set-ups at the nominal host speed:
//	             cluster boot plus key warm-up, or runtime and array
//	             creation (as measured: setup_s.raw)
//	peak_rss_mb  VmHWM of this process (kv-open: after its fixed rates)
//	rate_per_s   at the nominal host speed. kv-open:
//	             req_per_s.saturated.hostnorm, requests per second from
//	             kvClients closed-loop clients, median over 0.5-second
//	             steps; leanmd, stencil: steps_per_s.hostnorm;
//	             bcast-reduce: rounds_per_s.hostnorm (both one over the
//	             median solve step or round)
//	p50_ms       kv-open: req_p50_ms.high.best_windows, as measured: the
//	             p50 of the lower-decile 1000-request window at the high
//	             open-loop rate (see kvWindow), which waits on timers and
//	             wake-ups more than on the CPU, so scaling it by the CPU
//	             probe only adds the probe's noise; leanmd, stencil:
//	             step_p50_ms.hostnorm; bcast-reduce: round_p50_ms.hostnorm
//
// The line before the last carries each workload's own metrics under
// their full names: req_p50_ms.low, req_p99_ms.high, max_rps_at_slo,
// steps_per_s, round_p99_ms, failed_share and the rest. Those left out of
// the contract vary too much between runs on a shared 2-vCPU VM to gate
// a change on: max_rps_at_slo (20-35% between runs: whether a short step
// sheds near the knee is a coin flip) and the p99s (a mini-app solve gives
// one sample per 100 steps, too few for a tail).
//
// With --trace 1 the run first measures the workload untraced in a child
// process, then again with the runtime's tracer and metrics registry on, a
// decorator on every transport endpoint the benchmark owns, and
// benchmark-side spans. It prints the per-layer metrics that every workload
// can measure as its last line, writes the full layer report with linked
// spans and self times to .bench_build/perfbench/, and reports the tracing
// overhead (traced minus untraced).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line the benchmark contract prescribes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run's outcome.
type report struct {
	attempted, failed int64
	problems          []string          // failed checks and invalid steps, human-readable
	metrics           map[string]metric // the workload's end-to-end metrics, by full name
	setups            []float64         // seconds, one per set-up
	setupsScaled      []float64         // the same at the nominal host speed (see hostRef)
	notes             []string          // for the reader, not failed checks: ladder steps, failed requests
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed check, which makes the run incorrect; n
// operations count against failed_share.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	// headline names the workload metrics behind rate_per_s and p50_ms.
	headline [2]string
	run      func(rc *runCtx)
}

var workloads = []workload{
	{"kv-open", "request/reply serving: open-loop arrivals (5k, 30k req/s, a rate ladder) and 64 closed-loop clients at saturation; front end, external futures, mailbox queueing; no when-gating or collectives",
		[2]string{"req_per_s.saturated.hostnorm", "req_p50_ms.high.best_windows"}, runKV},
	{"leanmd", "fine-grained, per-message-bound mini-app: three when-gated entry methods, ~187k small cross-node sends per 100-step solve",
		[2]string{"steps_per_s.hostnorm", "step_p50_ms.hostnorm"}, runLeanMD},
	{"stencil", "coarse-grained, kernel-bound mini-app: few bulk faces per step, so per-message costs should not show here",
		[2]string{"steps_per_s.hostnorm", "step_p50_ms.hostnorm"}, runStencil},
	{"bcast-reduce", "the only workload crossing more than 2 nodes per round: spanning-tree broadcast and sum reduction over 4096 elements",
		[2]string{"rounds_per_s.hostnorm", "round_p50_ms.hostnorm"}, runBcast},
}

// endToEnd lists the contract's end-to-end metric names with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"rate_per_s", "1/s"}, {"p50_ms", "ms"},
}

// runCtx is what a workload run gets: its inputs, its time budget, and —
// when traced — the layer collector.
type runCtx struct {
	seed    int64
	seconds float64
	rep     *report
	ref     *hostRef
	lay     *layers // nil when tracing is off
}

// setup records one set-up that took d seconds; the caller has just
// finished it, so the probe after it pairs with it.
func (rc *runCtx) setup(d float64) {
	rc.rep.setups = append(rc.rep.setups, d)
	rc.rep.setupsScaled = append(rc.rep.setupsScaled, rc.ref.scale(d))
}

// host describes the machine and build every result comes from.
type host struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitRev       string  `json:"git_rev"`
	TimerFloorUS float64 `json:"timer_floor_us"`
}

func hostInfo() host {
	h := host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitRev:       "unknown (built outside a git checkout)",
		TimerFloorUS: timerFloorUS(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.GitRev = rev + dirty
		}
	}
	return h
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-open, leanmd, stencil or bcast-reduce")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	traced := flag.Int("trace", 0, "1 measures per-layer metrics in a traced run")
	all := flag.Bool("all", false, "run every workload --reps times untraced, in subprocesses, and print a summary")
	reps := flag.Int("reps", 3, "runs per workload with --all")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *reps))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	h := hostInfo()
	emit(map[string]any{"host": h})
	var res result
	if *traced == 1 {
		var err error
		if res, err = runTraced(w, *seed, *seconds, h); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	} else {
		rep := runWorkload(w, &runCtx{seed: *seed, seconds: float64(*seconds)})
		emit(ownLine{w.name, *seed, rep.metrics, rep.problems, rep.notes})
		res = endToEndResult(w, rep)
	}
	emit(res)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs w and fills in the metrics every workload shares.
func runWorkload(w workload, rc *runCtx) *report {
	rc.rep = newReport()
	rc.ref = newHostRef()
	w.run(rc)
	rep := rc.rep
	rep.set("setup_s", median(rep.setupsScaled), "s")
	rep.set("setup_s.raw", median(rep.setups), "s")
	rep.set("host.probe_ms", 1e3*median(rc.ref.probes), "ms")
	rep.set("host.probe_spread", iqrShare(rc.ref.probes), "ratio")
	if _, ok := rep.metrics["peak_rss_mb"]; !ok {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	share := 1.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	rep.set("failed_share", share, "ratio")
	return rep
}

// endToEndResult maps a workload's own metrics onto the contract's names.
// A metric the run could not produce makes the run incorrect rather than
// being reported as a number.
func endToEndResult(w workload, rep *report) result {
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	src := map[string]string{
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
		"rate_per_s": w.headline[0], "p50_ms": w.headline[1],
	}
	for _, e := range endToEnd {
		m, ok := rep.metrics[src[e.name]]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			m = metric{}
		}
		res.Metrics[e.name] = metric{m.Value, e.unit}
	}
	return res
}

// ownLine is the line before the result of an untraced run: the
// workload's own metrics under their full names.
type ownLine struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
	Problems []string          `json:"problems"`
	Notes    []string          `json:"notes,omitempty"`
}

// emit prints v as one JSON line on stdout.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// child runs this binary untraced on one workload in a subprocess and
// returns its last two stdout lines: the workload's own metrics and the
// contract result. Each workload gets its own process, so setup_s and
// peak_rss_mb belong to it alone.
func child(name string, seed int64, seconds int) (own ownLine, res result, err error) {
	exe, err := os.Executable()
	if err != nil {
		return own, res, fmt.Errorf("locate executable: %w", err)
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return own, res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return own, res, fmt.Errorf("%s seed %d: short output", name, seed)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return own, res, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &own); err != nil {
		return own, res, fmt.Errorf("%s seed %d: metrics line: %w", name, seed, err)
	}
	return own, res, nil
}

// runAll is the one command over every workload: reps runs each, each in
// its own subprocess with seeds seed, seed+1, ..., then one table per
// workload with every metric's unit, median, spread (IQR over median) and
// sample count. A run whose checks failed contributes no numbers.
func runAll(seed int64, seconds, reps int) int {
	h := hostInfo()
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)
	rc := 0
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int64
		for i := 0; i < reps; i++ {
			own, res, err := child(w.name, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				rc = 1
				continue
			}
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				fmt.Printf("%s seed %d: checks failed: %v\n", w.name, seed+int64(i), own.Problems)
				rc = 1
				continue
			}
			for k, m := range own.Metrics {
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("\n%s  (%s)\n", w.name, w.why)
		fmt.Printf("  %-28s %-8s %14s %8s %4s\n", "metric", "unit", "median", "spread", "n")
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-28s %-8s %14.6g %7.1f%% %4d\n", k, units[k], median(vals[k]), 100*iqrShare(vals[k]), len(vals[k]))
		}
		share := 0.0
		if attempted > 0 {
			share = float64(failed) / float64(attempted)
		}
		fmt.Printf("  %-28s %-8s %14.6g (%d of %d operations)\n", "failed_share (all runs)", "ratio", share, failed, attempted)
	}
	return rc
}

// elapsed returns seconds since t0.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
