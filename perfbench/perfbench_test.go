package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"charmgo/internal/core"
	"charmgo/internal/metrics"
	"charmgo/internal/stencil"
	"charmgo/internal/transport"
)

// optionals reports which of the optional interfaces core type-asserts on
// its transport t implements.
func optionals(t transport.Transport) [3]bool {
	_, buf := t.(transport.BufSender)
	_, shared := t.(transport.SharedBufSender)
	_, alive := t.(peerAliver)
	return [3]bool{buf, shared, alive}
}

// aliveMem is an in-memory endpoint that also reports peer liveness, as a
// failure detector wrapping one does.
type aliveMem struct{ *transport.MemEndpoint }

func (aliveMem) PeerAlive(int) bool { return true }

func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	defer nw.Endpoint(0).Close()
	var st transportStats
	var op atomic.Int64
	for _, ep := range []transport.Transport{nw.Endpoint(0), aliveMem{nw.Endpoint(0)}} {
		w, err := wrapEndpoint(ep, &st, nil, &op)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionals(w), optionals(ep); got != want {
			t.Errorf("%T: wrapped endpoint implements %v, bare %v", ep, got, want)
		}
	}
}

// stencilRun runs a small stencil on 2 in-memory nodes — its endpoints
// wrapped by the decorator when st is non-nil — and returns the checksum,
// the message counts summed over both nodes, and the frames the runtime
// itself counted.
func stencilRun(t *testing.T, st *transportStats) (sum float64, local, wire, frames int64) {
	t.Helper()
	p := stencil.Params{GridX: 16, GridY: 16, GridZ: 16, BX: 2, BY: 2, BZ: 2, Iters: 8}
	nw := transport.NewMemNetwork(2)
	reg := metrics.NewRegistry()
	var op atomic.Int64
	rts := make([]*core.Runtime, 2)
	for i := range rts {
		var ep transport.Transport = nw.Endpoint(i)
		if st != nil {
			var err error
			if ep, err = wrapEndpoint(ep, st, newSpanLog(1000), &op); err != nil {
				t.Fatal(err)
			}
		}
		rts[i] = core.NewRuntime(core.Config{PEs: 1, Transport: ep, Metrics: reg})
		stencil.Register(rts[i])
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts[1].Start(nil)
	}()
	var res stencil.Result
	rts[0].Start(stencil.Entry(p, &res))
	wg.Wait()
	for i, rt := range rts {
		_ = nw.Endpoint(i).Close()
		l, w := rt.MsgCounts()
		local += l
		wire += w
	}
	return res.Checksum, local, wire, reg.Counter("charmgo_frames_out_total", "").Value()
}

// TestWrappedRunMatchesBare checks that the decorator changes nothing the
// runtime does: the same messages take the same paths and the result is
// the same, while the decorator sees every frame the runtime sends. The
// checksum is a floating-point sum reduced in whatever order the partials
// arrive, so two bare runs can already differ in the last bit; equal
// means equal to 1e-12.
func TestWrappedRunMatchesBare(t *testing.T) {
	sum0, local0, wire0, _ := stencilRun(t, nil)
	var st transportStats
	sum1, local1, wire1, frames1 := stencilRun(t, &st)
	if wire0 == 0 {
		t.Fatal("bare run sent nothing across nodes")
	}
	if relErr(sum1, sum0) > 1e-12 {
		t.Errorf("checksum: wrapped %v, bare %v", sum1, sum0)
	}
	if local1 != local0 || wire1 != wire0 {
		t.Errorf("sends (local, wire): wrapped (%d, %d), bare (%d, %d)", local1, wire1, local0, wire0)
	}
	if got := st.frames.Load(); got != frames1 {
		t.Errorf("decorator saw %d frames out, runtime counted %d", got, frames1)
	}
	// A frame still in flight when its destination shuts down is never
	// handled, so at most the frames sent reach a handler.
	if h := st.handled.Load(); h == 0 || h > frames1 {
		t.Errorf("decorator handled %d frames in, %d were sent", h, frames1)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog(10)
	parent := l.newID()
	l.add("child", parent, parent, 10, 30)
	l.add("child", parent, parent, 20, 40)  // overlaps the first
	l.add("child", parent, parent, 90, 120) // runs past the parent's end
	l.addID(parent, "parent", 0, parent, 0, 100)
	st := l.selfTimes()["parent"]
	if st.Count != 1 || st.TotalMS != msOf(100) || st.SelfMS != msOf(100-30-10) {
		t.Errorf("parent self time = %+v, want total %v ms, self %v ms", st, msOf(100), msOf(60))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the benchmark's
// runners read, in step with the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, per []named
	for _, w := range workloads {
		ws = append(ws, named{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{Name: m.name, Unit: m.unit})
	}
	for _, m := range perLayer {
		per = append(per, named{Name: m.name, Unit: m.unit})
	}
	for _, c := range []struct {
		what       string
		json, code []named
	}{{"workloads", spec.Workloads, ws}, {"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, per}} {
		if !reflect.DeepEqual(c.json, c.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the code %v", c.what, c.json, c.code)
		}
	}
}
