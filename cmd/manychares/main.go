// Manychares sweeps the per-PE work-stealing scheduler across
// overdecomposition levels (DESIGN.md §3.9, EXPERIMENTS.md §manychares): one
// in-process node with several PEs hosts up to a million array elements, and
// every cell measures a broadcast+reduce round for one placement (balanced
// block map vs. every element pinned to PE 0) and message grain (empty EMs, a
// short CPU spin, or a sleep that models blocking I/O). Skewed+sleep cells
// are where stealing pays: idle PEs steal whole-chare run grants from PE 0's
// deque and the sleeps overlap (latency hiding, not CPU balance). Balanced
// cells guard the other direction — the scheduler must not tax the happy
// path. Results land in BENCH_manychares.json via `make bench/manychares`.
//
//	go run ./cmd/manychares                # full sweep + BENCH_manychares.json
//	go run ./cmd/manychares -quick         # CI-sized sweep, no 1M-chare cell
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"charmgo"
	"charmgo/internal/core"
)

// manyWorker is a stealable chare (no threaded or when-gated methods). It
// implements FastDispatcher (alphabetical ids: Bump=0, Nap=1) so reflective
// dispatch stays out of the measurement.
type manyWorker struct {
	charmgo.Chare
	N int
}

// Bump spins for ~spinIters arithmetic steps (0 = empty EM) and contributes.
func (w *manyWorker) Bump(spinIters int, done charmgo.Future) {
	w.N += spin(spinIters)
	w.Contribute(1, charmgo.SumReducer, done)
}

// Nap sleeps for napUS microseconds — a stand-in for blocking I/O. The sleep
// blocks only this PE's goroutine, so sibling PEs (and thieves holding stolen
// run grants) keep executing concurrently even at GOMAXPROCS=1.
func (w *manyWorker) Nap(napUS int, done charmgo.Future) {
	// Stalling the PE is the point: the skewed cells measure whether the
	// work-stealing scheduler can overlap these stalls across sibling PEs.
	time.Sleep(time.Duration(napUS) * time.Microsecond) //charmvet:ignore noblock
	w.Contribute(1, charmgo.SumReducer, done)
}

func (w *manyWorker) DispatchEM(id int, args []any) {
	switch id {
	case 0:
		w.Bump(args[0].(int), args[1].(charmgo.Future))
	case 1:
		w.Nap(args[0].(int), args[1].(charmgo.Future))
	default:
		panic(fmt.Sprintf("manyWorker: unknown method id %d", id))
	}
}

// spin burns roughly n xorshift steps of CPU; the data dependency keeps the
// compiler from deleting the loop.
func spin(n int) int {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return int(x & 1)
}

// pinMap places every element on PE 0 — the worst-case skew the stealer is
// built to repair.
type pinMap struct{}

func (pinMap) ProcNum(index []int, numPEs int) int { return 0 }

// result is one sweep cell.
type result struct {
	Placement  string  `json:"placement"` // balanced | skewed_pe0
	Grain      string  `json:"grain"`     // none | spin | sleep200us
	Chares     int     `json:"chares"`
	PEs        int     `json:"pes"`
	CharesPE   int     `json:"chares_per_pe"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Rounds     int     `json:"rounds"`
	CreateMs   float64 `json:"create_ms"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	Steals     int64   `json:"steals"`
}

// report is the BENCH_manychares.json document.
type report struct {
	Benchmark string   `json:"benchmark"`
	GoVersion string   `json:"go_version"`
	NumCPU    int      `json:"num_cpu"`
	Results   []result `json:"results"`
}

type cell struct {
	placement, grain string
	chares, pes, gmp int
	rounds           int
}

// grain parameters: the spin cell burns ~2µs of CPU per message so the EM
// body, not the dispatch, dominates; the sleep cell parks for 200µs so the
// only way to finish fast is to overlap elements across PEs.
const (
	spinIters = 2000
	napUS     = 200
)

// runCell runs the cell reps times and keeps the median-elapsed rep: the
// short cells finish in tens of milliseconds, where run-to-run noise on a
// shared box is several percent.
func runCell(c cell, reps int) result {
	rs := make([]result, reps)
	for i := range rs {
		rs[i] = runOne(c)
	}
	return median(rs)
}

// median returns the median-elapsed result of rs (reordering rs).
func median(rs []result) result {
	sort.Slice(rs, func(i, j int) bool { return rs[i].ElapsedMs < rs[j].ElapsedMs })
	return rs[len(rs)/2]
}

// spec round-trips a cell through the -cell flag for subprocess isolation.
func (c cell) spec() string {
	return fmt.Sprintf("%s,%s,%d,%d,%d,%d",
		c.placement, c.grain, c.chares, c.pes, c.gmp, c.rounds)
}

// id names a cell for -filter and -merge.
func (c cell) id() string {
	return fmt.Sprintf("%s/%s/%d/gmp%d", c.placement, c.grain, c.chares, c.gmp)
}

func parseCell(s string) (cell, error) {
	f := strings.Split(s, ",")
	if len(f) != 6 {
		return cell{}, fmt.Errorf("cell spec %q: want 6 fields", s)
	}
	var c cell
	c.placement, c.grain = f[0], f[1]
	for i, dst := range []*int{&c.chares, &c.pes, &c.gmp, &c.rounds} {
		n, err := strconv.Atoi(f[2+i])
		if err != nil {
			return cell{}, fmt.Errorf("cell spec %q: %v", s, err)
		}
		*dst = n
	}
	return c, nil
}

// runCellIsolated re-execs this binary to run one cell in a fresh process.
// Without isolation the 1M-chare cells inherit a multi-hundred-MB heap from
// earlier cells in the sweep, and GC pacing during the timed rounds then
// depends on sweep order. A pristine heap per cell makes the big cells
// reproducible.
func runCellIsolated(c cell, reps int) result {
	exe, err := os.Executable()
	if err != nil {
		return runCell(c, reps)
	}
	cmd := exec.Command(exe, "-cell", c.spec(), "-reps", strconv.Itoa(reps))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "manychares: cell %s subprocess: %v (falling back in-process)\n", c.spec(), err)
		return runCell(c, reps)
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		fmt.Fprintf(os.Stderr, "manychares: cell %s subprocess output: %v (falling back in-process)\n", c.spec(), err)
		return runCell(c, reps)
	}
	return r
}

func runOne(c cell) result {
	prev := runtime.GOMAXPROCS(c.gmp)
	defer runtime.GOMAXPROCS(prev)

	rt := core.NewRuntime(core.Config{PEs: c.pes, StealSeed: 12345})
	rt.Register(&manyWorker{})
	rt.RegisterMap("pe0", pinMap{})

	res := result{
		Placement: c.placement, Grain: c.grain,
		Chares: c.chares, PEs: c.pes, CharesPE: c.chares / c.pes,
		Gomaxprocs: c.gmp, Rounds: c.rounds,
	}
	method, arg := "Bump", 0
	switch c.grain {
	case "spin":
		arg = spinIters
	case "sleep200us":
		method, arg = "Nap", napUS
	}
	rt.Start(func(self *charmgo.Chare) {
		defer self.Exit()
		t0 := time.Now()
		var arr charmgo.Proxy
		if c.placement == "balanced" {
			arr = self.NewArray(&manyWorker{}, []int{c.chares})
		} else {
			arr = self.NewArrayMapped(&manyWorker{}, []int{c.chares}, "pe0")
		}
		w := self.CreateFuture()
		arr.Call(method, arg, w) // warm up: element creation, pools
		if got := w.Get(); got != c.chares {
			panic(fmt.Sprintf("warmup reduce = %v, want %d", got, c.chares))
		}
		res.CreateMs = float64(time.Since(t0).Microseconds()) / 1e3

		start := time.Now()
		for i := 0; i < c.rounds; i++ {
			f := self.CreateFuture()
			arr.Call(method, arg, f)
			if got := f.Get(); got != c.chares {
				panic(fmt.Sprintf("round reduce = %v, want %d", got, c.chares))
			}
		}
		elapsed := time.Since(start)
		res.ElapsedMs = float64(elapsed.Microseconds()) / 1e3
		res.MsgsPerSec = float64(c.chares*c.rounds) / elapsed.Seconds()
		res.Steals = rt.StealsTotal()
	})
	return res
}

func main() {
	quick := flag.Bool("quick", false, "CI-sized sweep (skip the 1M-chare cell)")
	out := flag.String("o", "BENCH_manychares.json", "output file ('' = stdout table only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep")
	filter := flag.String("filter", "", "only run cells whose placement/grain/chares/gmpN id contains this substring")
	merge := flag.String("merge", "", "existing report to merge into: cells measured this run replace their counterparts, everything else is kept")
	reps := flag.Int("reps", 5, "repetitions per cell; the median-elapsed rep is reported")
	cellSpec := flag.String("cell", "", "internal: run one placement,grain,chares,pes,gmp,rounds cell and print its result as JSON")
	flag.Parse()
	if *cellSpec != "" {
		c, err := parseCell(*cellSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		data, err := json.Marshal(runCell(c, *reps))
		if err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	const pes = 4
	maxProcs := []int{1, 4}

	var cells []cell
	// Balanced throughput ladder: overdecomposition from 1Ki to 256Ki
	// chares/PE (the top rung is the 1M+-chare cell). Empty EMs make this a
	// pure scheduler-overhead measurement.
	ladder := []int{4 << 10, 64 << 10}
	if !*quick {
		ladder = append(ladder, 1<<20)
	}
	for _, n := range ladder {
		// Small cells run many rounds so the timed window is long enough to
		// amortize GC chunkiness (a 20 ms cell is 10-20% one GC pause).
		rounds := 8
		switch {
		case n >= 1<<20:
			rounds = 2
		case n <= 4<<10:
			rounds = 16
		}
		for _, gmp := range maxProcs {
			cells = append(cells, cell{"balanced", "none", n, pes, gmp, rounds})
		}
	}
	// Balanced CPU grain: stealing must not tax work-dominated cells.
	for _, gmp := range maxProcs {
		cells = append(cells, cell{"balanced", "spin", 4 << 10, pes, gmp, 8})
	}
	// Skewed sleep grain: all elements on PE 0; only run-grant stealing can
	// overlap the sleeps. This is the cell stealing exists for.
	for _, gmp := range maxProcs {
		cells = append(cells, cell{"skewed_pe0", "sleep200us", 256, pes, gmp, 2})
	}

	rep := report{
		Benchmark: "overdecomposition sweep: broadcast+reduce round on the work-stealing PE scheduler",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	fmt.Printf("%-11s %-10s %9s %4s %4s %8s %10s %12s %8s\n",
		"placement", "grain", "chares", "pes", "gmp", "rounds", "ms/sweep", "msgs/s", "steals")
	// Every rep of a cell runs in its own subprocess; profiling needs the
	// cells in-process.
	runRep := func(c cell) result { return runCellIsolated(c, 1) }
	if *cpuprofile != "" {
		runRep = runOne
	}
	for _, c := range cells {
		if *filter != "" && !strings.Contains(c.id(), *filter) {
			continue
		}
		rs := make([]result, *reps)
		for i := range rs {
			rs[i] = runRep(c)
		}
		r := median(rs)
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-11s %-10s %9d %4d %4d %8d %10.1f %12.0f %8d\n",
			r.Placement, r.Grain, r.Chares, r.PEs, r.Gomaxprocs, r.Rounds,
			r.ElapsedMs, r.MsgsPerSec, r.Steals)
	}
	if *merge != "" {
		// Replace matching cells of the existing report: cells are measured
		// independently, so a per-cell rerun on a noisy box composes with the
		// untouched remainder.
		prev, err := os.ReadFile(*merge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		var base report
		if err := json.Unmarshal(prev, &base); err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		key := func(r result) string {
			return cell{placement: r.Placement, grain: r.Grain, chares: r.Chares, gmp: r.Gomaxprocs}.id()
		}
		fresh := make(map[string]result, len(rep.Results))
		for _, r := range rep.Results {
			fresh[key(r)] = r
		}
		for i, r := range base.Results {
			if nr, ok := fresh[key(r)]; ok {
				base.Results[i] = nr
				delete(fresh, key(r))
			}
		}
		for _, r := range rep.Results {
			if _, ok := fresh[key(r)]; ok {
				base.Results = append(base.Results, r)
			}
		}
		rep = base
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "manychares:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
