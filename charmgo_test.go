package charmgo_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"charmgo"
	"charmgo/internal/pool"
	"charmgo/internal/transport"
)

// Echo is a facade-level chare used by the public-API tests.
type Echo struct {
	charmgo.Chare
	Log []string
}

// Say records a message.
func (e *Echo) Say(msg string) { e.Log = append(e.Log, msg) }

// Dump returns the recorded messages.
func (e *Echo) Dump() []string { return e.Log }

// SumPE contributes this member's PE id.
func (e *Echo) SumPE(done charmgo.Future) {
	e.Contribute(int(e.MyPE()), charmgo.SumReducer, done)
}

func TestFacadeRun(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		charmgo.Run(charmgo.Config{PEs: 3},
			func(rt *charmgo.Runtime) { rt.Register(&Echo{}) },
			func(self *charmgo.Chare) {
				defer self.Exit()
				g := self.NewGroup(&Echo{})
				g.At(1).Call("Say", "one")
				g.At(1).Call("Say", "two")
				v := g.At(1).CallRet("Dump").Get()
				log, ok := v.([]string)
				if !ok || len(log) != 2 || log[0] != "one" || log[1] != "two" {
					t.Errorf("Dump = %v", v)
				}
				f := self.CreateFuture()
				g.Call("SumPE", f)
				if got := f.Get(); got != 0+1+2 {
					t.Errorf("SumPE = %v", got)
				}
			})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("facade job did not complete")
	}
}

func TestRunFromEnvSingleProcess(t *testing.T) {
	os.Unsetenv("CHARMGO_ADDRS")
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := charmgo.RunFromEnv(charmgo.Config{PEs: 2},
			func(rt *charmgo.Runtime) { rt.Register(&Echo{}) },
			func(self *charmgo.Chare) {
				defer self.Exit()
				if self.NumPEs() != 2 {
					t.Errorf("NumPEs = %d", self.NumPEs())
				}
			})
		if err != nil {
			t.Errorf("RunFromEnv: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunFromEnv job did not complete")
	}
}

func TestRunFromEnvBadNode(t *testing.T) {
	t.Setenv("CHARMGO_ADDRS", "127.0.0.1:1,127.0.0.1:2")
	t.Setenv("CHARMGO_NODE", "9")
	if err := charmgo.RunFromEnv(charmgo.Config{}, nil, nil); err == nil {
		t.Error("bad CHARMGO_NODE accepted")
	}
	t.Setenv("CHARMGO_NODE", "0")
	t.Setenv("CHARMGO_PES", "zero")
	if err := charmgo.RunFromEnv(charmgo.Config{}, nil, nil); err == nil {
		t.Error("bad CHARMGO_PES accepted")
	}
}

func TestPoolAcrossNodes(t *testing.T) {
	pool.RegisterFunc("triple", func(x any) any { return x.(int) * 3 })
	nw := transport.NewMemNetwork(2)
	var wg sync.WaitGroup
	results := make(chan []any, 1)
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rt := charmgo.NewRuntime(charmgo.Config{PEs: 2, Transport: nw.Endpoint(node)})
			pool.Register(rt)
			rt.Start(func(self *charmgo.Chare) {
				defer self.Exit()
				p := pool.New(self)
				// 3 workers across 2 nodes execute tasks
				res := p.Map(self, "triple", 3, []any{1, 2, 3, 4, 5, 6})
				results <- res
			})
		}(node)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("cross-node pool job did not complete")
	}
	res := <-results
	for i, task := range []int{1, 2, 3, 4, 5, 6} {
		if res[i] != task*3 {
			t.Errorf("res[%d] = %v, want %d", i, res[i], task*3)
		}
	}
}

// TestMultiProcessDisthello builds examples/disthello and launches it as
// two real OS processes connected over TCP (what cmd/charmrun does),
// verifying the full multi-process path end to end.
func TestMultiProcessDisthello(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process spawning")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "disthello")
	build := exec.Command("go", "build", "-o", bin, "./examples/disthello")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	addrs := strings.Join(freeLocalAddrs(t, 2), ",")
	// The context kills both processes if the job overruns, so a hung run
	// cannot outlive the test and hold its ports.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var outs [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			cmd := exec.CommandContext(ctx, bin)
			cmd.Env = append(os.Environ(),
				"CHARMGO_ADDRS="+addrs,
				fmt.Sprintf("CHARMGO_NODE=%d", node),
				"CHARMGO_PES=2",
			)
			outs[node], errs[node] = cmd.CombinedOutput()
		}(node)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatalf("multi-process job did not complete\nnode 0:\n%s\nnode 1:\n%s", outs[0], outs[1])
	}
	for node := 0; node < 2; node++ {
		if errs[node] != nil {
			t.Fatalf("node %d: %v\n%s", node, errs[node], outs[node])
		}
	}
	combined := string(outs[0]) + string(outs[1])
	for pe := 0; pe < 4; pe++ {
		want := fmt.Sprintf("hello from PE %d of 4", pe)
		if !strings.Contains(combined, want) {
			t.Errorf("missing %q in output:\n%s", want, combined)
		}
	}
	if !strings.Contains(combined, "sum of PE ids: 6") {
		t.Errorf("missing reduction result in output:\n%s", combined)
	}
}

// freeLocalAddrs returns n distinct loopback addresses whose ports the
// kernel reported free. A fixed port inside the ephemeral range can be
// taken at any moment by an outgoing connection of a concurrently running
// test package.
func freeLocalAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() // held until all n are chosen, so they differ
		addrs[i] = ln.Addr().String()
	}
	return addrs
}
