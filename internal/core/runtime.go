package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/introspect"
	"charmgo/internal/metrics"
	"charmgo/internal/ser"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

func init() {
	// Pre-register with the gob fallback every type that may travel inside
	// interface-typed argument lists or control payloads.
	for _, v := range []any{
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), bool(false), string(""),
		[]byte(nil), []int(nil), []int32(nil), []int64(nil),
		[]float32(nil), []float64(nil), []string(nil), []bool(nil),
		[]any(nil), map[string]any(nil), map[string]int(nil),
		map[string]float64(nil), [][]int(nil), [][]float64(nil),
		Proxy{}, Future{}, FutureRef{}, Target{}, Reducer{},
		LBObject{}, []LBObject(nil),
	} {
		ser.RegisterType(v)
	}
}

// LBStrategy computes a new element-to-PE assignment from measured loads.
// Implementations live in internal/lb; the interface is defined here so the
// runtime's AtSync protocol can drive any strategy.
type LBStrategy interface {
	Name() string
	// Assign returns the new PE for every object key. Objects omitted from
	// the result stay where they are.
	Assign(objs []LBObject, numPEs int) map[string]PE
}

// Config configures a Runtime (one node of a job).
type Config struct {
	// PEs is the number of processing elements hosted by this node.
	// It must be identical on every node of a job. Default 1.
	PEs int
	// Transport connects this node to its peers. Nil means single-node.
	Transport transport.Transport
	// Dispatch selects Static (Charm++-like) or Dynamic (CharmPy-like)
	// entry-method dispatch. See DESIGN.md.
	Dispatch DispatchMode
	// ForceSerialize serializes and deserializes every cross-PE message even
	// within the node, modelling separate-process behaviour for experiments.
	ForceSerialize bool
	// LB is the load-balancing strategy run at AtSync points. Nil means
	// AtSync acts as a barrier with no migrations.
	LB LBStrategy
	// Trace, when non-nil, records the runtime's full activity lifecycle —
	// entry methods, sends/receives (queue-wait), idle spans, reductions,
	// futures, quiescence, migrations, LB decisions, aggregator flushes and
	// transport frames (Projections-style performance tracing;
	// internal/trace). Nil costs one predicted branch per event site.
	Trace *trace.Tracer
	// TraceGather makes node 0 collect every node's trace report after the
	// job exits (over the regular frame path), so Runtime.TraceReports on
	// node 0 returns the whole job. Requires Trace on every node.
	TraceGather bool
	// Metrics, when non-nil, receives the runtime's counters/gauges
	// (sends, wire bytes, batch sizes, per-PE mailbox depth, ...); expose
	// it with metrics.Serve. Nil costs one predicted branch per update.
	Metrics *metrics.Registry
	// BatchBytes is the TRAM-style aggregation threshold for cross-node
	// sends: small frames destined for the same node are coalesced into one
	// batch frame, transmitted when it reaches this size, when a PE runs out
	// of work, or when FlushInterval elapses. 0 selects the default
	// (8 KiB); a negative value disables aggregation (every message is its
	// own transport frame, as in plain Charm++ without TRAM).
	BatchBytes int
	// FlushInterval is the background flush period for partially filled
	// batches — the latency bound for aggregated messages when every PE is
	// busy. 0 selects the default (100us).
	FlushInterval time.Duration
	// TreeArity is the fan-out k of the k-ary spanning tree used for
	// inter-node collectives (tree.go): a broadcast source sends at most k
	// frames and each receiving node relays to at most k children, and
	// reduction partials are merged at each interior node on the way up,
	// bounding any node's collective work to O(k) instead of the flat
	// scheme's O(N) at the root. 0 selects the default (4); a negative
	// value disables the tree (flat collectives, every peer messaged
	// directly from the source/root).
	TreeArity int
	// DisableGenerated ignores `charmgo gen` bindings at Register, forcing
	// the reflect/gob fallback for every chare type. The wire format is
	// unchanged (bound and unbound peers interoperate), so this is the
	// ablation switch: the same program measured with and without typed
	// dispatch/codecs (cmd/dispatchbench, BENCH_dispatch.json).
	DisableGenerated bool
	// SampleInterval, when > 0, turns on live introspection sampling (see
	// internal/introspect and core/introspect.go): every node snapshots its
	// PEs and collections at this period and node 0 assembles the cluster
	// view served at /introspect. 0 (the default) disables sampling — the
	// hot path then pays one predicted branch per event site and nothing
	// else.
	SampleInterval time.Duration
	// SampleTopK bounds the hottest-elements list each collection reports
	// per sample. 0 selects the default (5).
	SampleTopK int
	// Introspect, when non-nil, is the cluster-introspection holder the
	// runtime wires at Start (node 0 fills it with every node's snapshots).
	// Pass the same *introspect.Cluster to metrics.Serve to expose it. Nil
	// with SampleInterval > 0 makes the runtime create one (reachable via
	// Runtime.Introspect).
	Introspect *introspect.Cluster
	// TraceGatherTimeout bounds how long node 0 waits for the other nodes'
	// trace reports after the job exits (TraceGather); nodes that crashed
	// mid-job never report. 0 selects the default (3s).
	TraceGatherTimeout time.Duration
	// FT, when non-nil, enables in-memory double checkpointing (see ft.go
	// and internal/ft): Chare.FTCheckpoint ships each node's snapshot to its
	// buddy through this store, and RestartFromMemory restores a failed
	// job's chares from the surviving copies. With FT set, transport send
	// errors are dropped instead of panicking — a peer going silent is a
	// failure for the detector to handle, not a bug in this node.
	FT FTStore
	// InitialActive, when non-nil, turns on elastic membership (elastic.go):
	// the job is provisioned at Transport.NumNodes() slots but starts with
	// only the listed node ids active; the rest may ElasticJoin later, and
	// active nodes may ElasticLeave. Must list node 0 (the membership
	// coordinator) and be identical on every node. Nil (the default) keeps
	// the classic fixed-membership behaviour at zero cost.
	InitialActive []int
	// StealSeed seeds each PE's victim-selection RNG for within-node work
	// stealing (steal.go; PE index is mixed in), making steal sequences
	// replayable for deterministic tests. 0 keeps the default seed.
	StealSeed int64
}

// Runtime is one node of a charmgo job: it hosts PEs, the chare-type
// registry, and the inter-node wiring. It corresponds to the per-process
// "charm" runtime object of the paper.
type Runtime struct {
	cfg      Config
	nodeID   int
	numNodes int
	basePE   PE
	totalPEs int

	mu       sync.Mutex
	types    map[string]*chareType
	maps     map[string]ArrayMap
	reducers map[string]ReducerFunc

	// Collection metadata, known on every node. Read on every proxy invoke
	// (method-id resolution, routing), written only when a collection is
	// created, so it is kept as a copy-on-write map behind an atomic pointer:
	// readers never take a lock, writers copy under collWrMu.
	collWrMu sync.Mutex
	colls    atomic.Pointer[map[CID]*createMsg]

	// last-known element locations (hints), sharded with an epoch-published
	// lock-free read path (loccache.go)
	loc *locCache

	pes     []*peState
	entry   func(*Chare)
	started atomic.Bool

	// work stealing (steal.go)
	nIdle        atomic.Int32 // PEs currently parked with empty deques
	stealPause   atomic.Int32 // >0: thieves must hand grants back to owners
	stolenActive atomic.Int32 // grants currently executing on non-owner PEs
	runqBacklog  atomic.Int64 // messages parked in element run queues
	exited       atomic.Bool
	exitFn       sync.Once
	wg           sync.WaitGroup
	done         chan struct{}

	// fault tolerance (ft.go)
	ftEpoch   atomic.Int64 // last committed in-memory checkpoint epoch
	cleanExit atomic.Bool  // job ended through Exit, not Abort

	qd qdState

	wt  *wireTables // method-name interning, built at Start
	agg *aggregator // cross-node send aggregation; nil when disabled

	// spanning-tree collectives (tree.go)
	arity    int           // resolved Config.TreeArity (<= 0 disables)
	bcastSeq atomic.Uint64 // per-root fragment sequence numbers
	fragMu   sync.Mutex
	frags    map[fragKey]*fragAsm // in-flight fragmented broadcasts
	ord      *bcastOrder          // causal ordering for tree broadcasts; nil when tree off

	met        *rtMetrics        // nil unless Config.Metrics is set
	traceRepCh chan trace.Report // node 0 gather channel (TraceGather)
	gathered   []trace.Report    // node 0: all node reports after Start

	// live introspection (core/introspect.go)
	sampler *sampler            // nil unless Config.SampleInterval > 0
	intro   *introspect.Cluster // nil unless introspection is configured

	// elastic membership (elastic.go); view stays nil outside elastic mode
	view      atomic.Pointer[memberView]
	viewHook  func(epoch int64, active []bool)
	admitHook func(node int) error
	elMu      sync.Mutex    // serializes coordinator membership transitions
	running   chan struct{} // closed once Start has wired transport + PEs
	extMu     sync.Mutex    // external (channel-awaited) futures
	extSeq    int64
	extW      map[int64]*extWaiter
	byeMu     sync.Mutex // leaver-side goodbye collection
	byeWant   map[int]bool
	byeGot    map[int]bool
	byeDone   bool
	byeCh     chan struct{}

	// test/diagnostic counters (atomics; the send path is hot)
	nMsgsLocal atomic.Int64
	nMsgsWire  atomic.Int64
	// nBcastSends counts per-destination transmissions used to originate
	// broadcasts from this node: with the spanning tree it grows by at most
	// TreeArity per broadcast regardless of job size, with flat collectives
	// by numNodes-1. Benchmarks assert the O(N) -> O(k) drop on it.
	nBcastSends atomic.Int64
}

// NewRuntime creates a node runtime. Register chare types on it, then call
// Start.
func NewRuntime(cfg Config) *Runtime {
	if cfg.PEs <= 0 {
		cfg.PEs = 1
	}
	rt := &Runtime{
		cfg:      cfg,
		types:    map[string]*chareType{},
		maps:     map[string]ArrayMap{},
		reducers: map[string]ReducerFunc{},
		loc:      newLocCache(),
		done:     make(chan struct{}),
		running:  make(chan struct{}),
		frags:    map[fragKey]*fragAsm{},
	}
	rt.arity = cfg.TreeArity
	if rt.arity == 0 {
		rt.arity = defaultTreeArity
	}
	empty := map[CID]*createMsg{}
	rt.colls.Store(&empty)
	if cfg.Transport != nil {
		rt.nodeID = cfg.Transport.NodeID()
		rt.numNodes = cfg.Transport.NumNodes()
	} else {
		rt.numNodes = 1
	}
	rt.basePE = PE(rt.nodeID * cfg.PEs)
	rt.totalPEs = rt.numNodes * cfg.PEs
	if rt.treeEnabled() {
		rt.ord = &bcastOrder{
			sent:  make([]atomic.Int64, rt.numNodes),
			recv:  make([]atomic.Int64, rt.numNodes),
			holds: map[int][]*heldBcast{},
		}
	}
	if cfg.InitialActive != nil {
		rt.elasticInit()
	}
	rt.Register(&mainChare{}, Threaded("Run"))
	return rt
}

// NumPEs returns the total number of PEs across the whole job.
func (rt *Runtime) NumPEs() int { return rt.totalPEs }

// NodeID returns this node's id.
func (rt *Runtime) NodeID() int { return rt.nodeID }

// mainChare hosts the user entry point on PE 0 as an implicitly threaded
// entry method, like CharmPy's entry point (paper section II-B).
type mainChare struct {
	Chare
}

// Run invokes the runtime's registered entry function.
func (m *mainChare) Run() {
	rt := m.ec.p.rt
	if rt.entry != nil {
		rt.entry(&m.Chare)
	}
}

// Start launches the node's PEs and, on node 0, runs entry as the program
// entry point. It blocks until Exit is called somewhere in the job.
func (rt *Runtime) Start(entry func(self *Chare)) {
	if rt.started.Swap(true) {
		panic("core: Start called twice")
	}
	rt.entry = entry
	rt.mu.Lock()
	rt.wt = buildWireTables(rt.types)
	rt.mu.Unlock()
	rt.pes = make([]*peState, rt.cfg.PEs)
	for i := 0; i < rt.cfg.PEs; i++ {
		rt.pes[i] = newPEState(rt, rt.basePE+PE(i))
	}
	if tr := rt.cfg.Trace; tr != nil {
		tr.SetTopology(rt.totalPEs, int(rt.basePE))
		if rt.cfg.TraceGather && rt.numNodes > 1 && rt.nodeID == 0 {
			rt.traceRepCh = make(chan trace.Report, rt.numNodes)
		}
	}
	if rt.cfg.Metrics != nil {
		rt.met = newRTMetrics(rt, rt.cfg.Metrics)
	}
	if rt.cfg.Introspect != nil || rt.cfg.SampleInterval > 0 {
		rt.setupIntrospect()
	}
	if tr := rt.cfg.Transport; tr != nil {
		if rt.numNodes > 1 && rt.cfg.BatchBytes >= 0 {
			rt.agg = newAggregator(rt, rt.cfg.BatchBytes, rt.cfg.FlushInterval)
		}
		tr.SetHandler(rt.onFrame)
	}
	for _, p := range rt.pes {
		rt.wg.Add(1)
		go func(p *peState) {
			defer rt.wg.Done()
			p.loop()
		}(p)
	}
	if rt.sampler != nil {
		go rt.sampler.loop()
	}
	close(rt.running) // transport wired, PEs draining: elastic requests may go
	if rt.nodeID == 0 {
		rt.pes[0].mbox.push(&Message{Kind: mStartMain, Src: -1})
	}
	rt.wg.Wait()
	if rt.sampler != nil {
		rt.sampler.shutdown()
	}
	if rt.agg != nil {
		rt.agg.shutdown()
	}
	rt.gatherTraces()
	close(rt.done)
}

// Exit terminates the whole job (paper: charm.exit()). Safe to call from any
// entry method on any node.
func (rt *Runtime) Exit() {
	rt.exitFn.Do(func() {
		rt.cleanExit.Store(true)
		rt.exited.Store(true)
		// A node that already left the membership shuts down alone: the job
		// keeps running on the remaining members.
		if rt.cfg.Transport != nil && rt.nodeActive(rt.nodeID) {
			if rt.agg != nil {
				// Preserve ordering: pending application traffic must reach
				// peers before the exit frame.
				rt.agg.flushAll()
			}
			exit := &Message{Kind: mExit, Src: -1}
			for n := 0; n < rt.numNodes; n++ {
				if n != rt.nodeID && rt.nodeActive(n) {
					// xmit swallows errors once exited; a peer may be down
					rt.ordSentTo(n)
					rt.xmit(n, appendMsg(transport.GetBuf(), -1, exit, rt.wt))
				}
			}
		}
		rt.localExit()
	})
}

func (rt *Runtime) localExit() {
	rt.exited.Store(true)
	for _, p := range rt.pes {
		p.mbox.pushFront(&Message{Kind: mExit, Src: -1})
	}
}

// Done returns a channel closed when the job has exited on this node.
func (rt *Runtime) Done() <-chan struct{} { return rt.done }

// nodeOf returns the node hosting a global PE.
func (rt *Runtime) nodeOf(pe PE) int { return int(pe) / rt.cfg.PEs }

// localPE returns the peState for a global PE hosted by this node.
func (rt *Runtime) localPE(pe PE) *peState {
	return rt.pes[int(pe)-int(rt.basePE)]
}

func (rt *Runtime) isLocal(pe PE) bool {
	return int(pe) >= int(rt.basePE) && int(pe) < int(rt.basePE)+rt.cfg.PEs
}

// send routes m to the PE that should handle it.
func (rt *Runtime) send(pe PE, m *Message) {
	if pe < 0 || int(pe) >= rt.totalPEs {
		panic(fmt.Sprintf("core: send to invalid PE %d (total %d)", pe, rt.totalPEs))
	}
	// Elastic membership: destinations on inactive slots delegate to the
	// slot's stand-in node (stale tombs and caches self-heal by forwarding).
	pe = rt.resolvePE(pe)
	rt.qdCountSend(m.Kind)
	if tr := rt.cfg.Trace; tr != nil && m.Kind == mInvoke {
		src := -1
		if rt.isLocal(m.Src) {
			src = int(m.Src - rt.basePE)
		}
		tr.SendTo(src, int(pe), m.Method, tr.Since(), 0)
	}
	if rt.isLocal(pe) {
		if rt.cfg.ForceSerialize && serializableKind(m.Kind) {
			frame := appendMsg(transport.GetBuf(), pe, m, rt.wt)
			_, m2, err := rt.decodeFrame(frame[transport.PrefixLen:])
			transport.PutBuf(frame)
			if err != nil {
				panic("core: ForceSerialize roundtrip: " + err.Error())
			}
			rt.rebindMsg(m2)
			m = m2
		}
		rt.nMsgsLocal.Add(1)
		if met := rt.met; met != nil {
			met.sendsLocal.Inc()
		}
		if tr := rt.cfg.Trace; tr != nil {
			m.enq = tr.Since()
		}
		rt.localPE(pe).mbox.push(m)
		return
	}
	rt.nMsgsWire.Add(1)
	if met := rt.met; met != nil {
		met.sendsWire.Inc()
	}
	node := rt.nodeOf(pe)
	rt.ordSentTo(node) // tree broadcasts must not overtake this message
	if rt.agg != nil {
		rt.agg.send(node, pe, m)
		return
	}
	frame := appendMsg(transport.GetBuf(), pe, m, rt.wt)
	if tr := rt.cfg.Trace; tr != nil {
		tr.Comm(int(m.Src), int(pe), len(frame)-transport.PrefixLen)
	}
	rt.xmit(node, frame)
}

// xmit hands a pooled frame buffer (from transport.GetBuf, payload after
// the reserved prefix) to the transport, using the zero-copy SendBuf path
// when available. It takes ownership of buf.
func (rt *Runtime) xmit(node int, buf []byte) {
	if met := rt.met; met != nil {
		met.framesOut.Inc()
		met.wireBytesOut.Add(int64(len(buf) - transport.PrefixLen))
	}
	if tr := rt.cfg.Trace; tr != nil {
		tr.Frame(true, node, tr.Since(), len(buf)-transport.PrefixLen)
	}
	var err error
	if bs, ok := rt.cfg.Transport.(transport.BufSender); ok {
		err = bs.SendBuf(node, buf)
	} else {
		err = rt.cfg.Transport.Send(node, buf[transport.PrefixLen:])
		transport.PutBuf(buf)
	}
	if err != nil && !rt.exited.Load() {
		if rt.cfg.FT != nil || rt.elastic() {
			// A send to a dying or departed peer: drop the frame. The failure
			// detector (internal/ft) or the membership protocol owns the
			// peer's lifecycle; panicking here would take this node down too.
			return
		}
		panic(fmt.Sprintf("core: transport send to node %d: %v", node, err))
	}
}

// xmitShared transmits one buffer to several nodes, taking ownership of buf.
// Transports that can fan out a refcounted buffer (the in-memory one) get
// the whole destination list in one call; others receive per-node copies —
// the last destination takes the original buffer.
func (rt *Runtime) xmitShared(nodes []int, buf []byte) {
	if len(nodes) == 0 {
		transport.PutBuf(buf)
		return
	}
	if sb, ok := rt.cfg.Transport.(transport.SharedBufSender); ok && len(nodes) > 1 {
		if met := rt.met; met != nil {
			met.framesOut.Add(int64(len(nodes)))
			met.wireBytesOut.Add(int64(len(nodes)) * int64(len(buf)-transport.PrefixLen))
		}
		if tr := rt.cfg.Trace; tr != nil {
			for _, n := range nodes {
				tr.Frame(true, n, tr.Since(), len(buf)-transport.PrefixLen)
			}
		}
		// Copy the destination list before the interface call so callers'
		// stack-allocated child arrays don't escape on the non-shared path.
		ns := make([]int, len(nodes))
		copy(ns, nodes)
		if err := sb.SendBufShared(ns, buf); err != nil && !rt.exited.Load() && rt.cfg.FT == nil && !rt.elastic() {
			panic(fmt.Sprintf("core: transport send to nodes %v: %v", ns, err))
		}
		return
	}
	body := buf[transport.PrefixLen:]
	for i, n := range nodes {
		out := buf
		if i < len(nodes)-1 {
			out = append(transport.GetBuf(), body...)
		}
		rt.xmit(n, out)
	}
}

// bcastAllPEs delivers m to every PE in the job: over the k-ary spanning
// tree when enabled (the source sends at most TreeArity frames and each
// node relays to its children), or by messaging every peer node directly
// in flat mode.
func (rt *Runtime) bcastAllPEs(m *Message) {
	if rt.numNodes > 1 {
		if rt.treeEnabled() {
			rt.bcastTree(m)
		} else {
			rt.nBcastSends.Add(int64(rt.numNodes - 1))
			for n := 0; n < rt.numNodes; n++ {
				if n != rt.nodeID && rt.nodeActive(n) {
					rt.qdCountSend(m.Kind) // the frame itself, matched at ingress
					if rt.agg != nil {
						rt.agg.send(n, -1, m)
					} else {
						rt.xmit(n, appendMsg(transport.GetBuf(), -1, m, rt.wt))
					}
				}
			}
		}
	}
	rt.deliverAllLocal(m)
}

// deliverAllLocal hands a node-level broadcast to every local PE. The
// message was decoded (or built) once on this node; all PEs share the same
// immutable *Message — and therefore the same argument backing — instead of
// receiving per-PE copies. The exceptions are the message shapes a handler
// mutates in place (element-addressed invokes bump the forwarding hop
// count, channel messages rebind their value lazily): those keep per-PE
// copies.
func (rt *Runtime) deliverAllLocal(m *Message) { rt.deliverAllLocalShared(m, nil) }

// deliverAllLocalShared is deliverAllLocal with a release hook that runs
// after the last PE finishes handling the message (fragmented broadcasts
// use it to recycle the pooled reassembly buffer).
func (rt *Runtime) deliverAllLocalShared(m *Message, release func()) {
	tr := rt.cfg.Trace
	src := -1
	if tr != nil && rt.isLocal(m.Src) {
		src = int(m.Src - rt.basePE)
	}
	if (m.Kind == mInvoke && m.Idx != nil) || m.Kind == mChanMsg {
		for _, p := range rt.pes {
			rt.qdCountSend(m.Kind) // per-copy; matched when the PE dequeues it
			cp := *m
			if tr != nil {
				cp.enq = tr.Since()
				if m.Kind == mInvoke {
					tr.Send(src, m.Method, cp.enq, 0)
				}
			}
			p.mbox.push(&cp)
		}
		if release != nil {
			release()
		}
		return
	}
	sh := &msgShared{release: release}
	sh.refs.Store(int32(len(rt.pes)))
	m.shared = sh
	if tr != nil {
		m.enq = tr.Since()
	}
	for _, p := range rt.pes {
		rt.qdCountSend(m.Kind) // per delivery; matched when the PE dequeues it
		if tr != nil && m.Kind == mInvoke {
			tr.Send(src, m.Method, m.enq, 0)
		}
		p.mbox.push(m)
	}
}

// onFrame handles an inbound frame from another node. Frames may arrive
// through the zero-copy SendBuf path, in which case they are only valid for
// the duration of this call — decodeMsgWT copies everything it returns.
func (rt *Runtime) onFrame(from int, frame []byte) {
	if met := rt.met; met != nil {
		met.framesIn.Inc()
		met.wireBytesIn.Add(int64(len(frame)))
	}
	if tr := rt.cfg.Trace; tr != nil {
		tr.Frame(false, from, tr.Since(), len(frame))
	}
	if len(frame) >= 4 {
		switch d := int32(binary.LittleEndian.Uint32(frame)); {
		case d == batchDest:
			rt.onBatch(from, frame[4:])
			return
		case d == fragDest:
			rt.onFragment(from, frame)
			return
		case d <= treeDestBase:
			rt.onTreeBcast(from, frame)
			return
		}
	}
	if m, dest, local := rt.ingress(from, frame); local {
		if tr := rt.cfg.Trace; tr != nil {
			m.enq = tr.Since()
		}
		rt.localPE(dest).mbox.push(m)
		if !elasticKind(m.Kind) {
			// Membership-protocol traffic is uncounted on both ends
			// (elastic.go): its sender bypassed the sent vector too.
			rt.ordRecvFrom(from)
		}
	}
	rt.ordRelease(from)
}

// onBatch de-batches an aggregated frame. Messages bound for local PEs are
// collected and pushed into each mailbox in bulk (one lock acquisition and
// wakeup per PE per batch instead of per message).
func (rt *Runtime) onBatch(from int, body []byte) {
	perPE := make([][]*Message, rt.cfg.PEs)
	pending := 0 // buffered local unicasts not yet counted for ordering
	flush := func() {
		for i, ms := range perPE {
			if len(ms) > 0 {
				rt.pes[i].mbox.pushAll(ms)
				perPE[i] = perPE[i][:0]
			}
		}
		// Count the ordering receives only now that the messages are in the
		// mailboxes — a count may release a held tree broadcast, which must
		// enqueue behind them.
		rt.ordRecvN(from, pending)
		pending = 0
	}
	for len(body) > 0 {
		if len(body) < 4 {
			panic(fmt.Sprintf("core: truncated batch frame from node %d", from))
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(n) > uint64(len(body)) {
			panic(fmt.Sprintf("core: bad sub-frame length %d from node %d", n, from))
		}
		sub := body[:n]
		body = body[n:]
		// A sub-frame that ingress delivers itself (broadcast, forward, exit)
		// must not overtake the unicasts batched before it: flush first.
		if n >= 4 {
			if d := int32(binary.LittleEndian.Uint32(sub)); d < 0 || !rt.isLocal(PE(d)) {
				flush()
			}
		}
		m, dest, local := rt.ingress(from, sub)
		if local {
			if tr := rt.cfg.Trace; tr != nil {
				m.enq = tr.Since()
			}
			i := int(dest - rt.basePE)
			perPE[i] = append(perPE[i], m)
			pending++
		} else if m != nil && m.Kind == mExit {
			return
		}
	}
	flush()
	rt.ordRelease(from)
}

// ingress decodes and routes one inbound frame. It returns (m, dest, true)
// when the message is a unicast for a local PE (the caller enqueues it), and
// handles every other case itself.
func (rt *Runtime) ingress(from int, frame []byte) (*Message, PE, bool) {
	dest, m, err := rt.decodeFrame(frame)
	if err != nil {
		panic(fmt.Sprintf("core: bad frame from node %d: %v", from, err))
	}
	if met := rt.met; met != nil {
		if m.Kind == mInvoke || m.Kind == mFutureSet {
			met.decodeHot.Inc()
		} else {
			met.decodeGob.Inc()
		}
	}
	rt.rebindMsg(m)
	// Causal-ordering receive counts (tree.go): a tree broadcast from this
	// sender is held until every direct message it had already sent us has
	// been ingressed AND is visible locally. The branches ingress handles
	// itself count here; the returned-unicast case is counted by the caller
	// after the mailbox push.
	if m.Kind == mElasticBye {
		// Goodbye from a member that applied this node's retirement view;
		// uncounted like all membership traffic (elastic.go).
		if bm, ok := m.Ctl.(*elasticByeMsg); ok {
			rt.byeFrom(bm.From)
		}
		return nil, 0, false
	}
	if m.Kind == mExit {
		rt.ordRecvFrom(from)
		rt.cleanExit.Store(true) // a peer's Exit reached us: orderly shutdown
		rt.localExit()
		return m, 0, false
	}
	if m.Kind == mTraceReport {
		rt.ordRecvFrom(from)
		if ch := rt.traceRepCh; ch != nil {
			if tm, ok := m.Ctl.(*traceReportMsg); ok {
				select {
				case ch <- tm.Report:
				default: // duplicate or over-capacity report: drop
				}
			}
		}
		return nil, 0, false
	}
	if m.Kind == mIntroReport {
		rt.ordRecvFrom(from)
		if rm, ok := m.Ctl.(*introReportMsg); ok {
			rt.introReport(rm)
		}
		return nil, 0, false
	}
	if dest < 0 {
		rt.ordRecvFrom(from)
		rt.qdCountRecv(m.Kind) // the broadcast frame; copies counted per-PE
		rt.deliverAllLocal(m)
		return nil, 0, false
	}
	if !rt.isLocal(dest) {
		// mis-routed (e.g. stale location): count as received here, then
		// forward (the forward counts as a fresh send)
		rt.ordRecvFrom(from)
		rt.qdCountRecv(m.Kind)
		rt.send(dest, m)
		return nil, 0, false
	}
	return m, dest, true
}

// MsgCounts returns (local, wire) message counts; used by tests and benches.
func (rt *Runtime) MsgCounts() (local, wire int64) {
	return rt.nMsgsLocal.Load(), rt.nMsgsWire.Load()
}

// BcastSends returns how many per-destination transmissions this node has
// used to originate broadcasts (not counting relays); used by tests and
// benches to assert the spanning tree's O(N) -> O(k) root fan-out drop.
func (rt *Runtime) BcastSends() int64 { return rt.nBcastSends.Load() }

// collection metadata

func (rt *Runtime) putCollMeta(cm *createMsg) {
	rt.collWrMu.Lock()
	// Every local PE handles the same broadcast *createMsg, so the type is
	// resolved under collWrMu: the first PE writes it, later ones only read.
	if cm.ct == nil {
		rt.mu.Lock()
		cm.ct = rt.types[cm.Type] // may stay nil for types unknown here
		rt.mu.Unlock()
	}
	old := *rt.colls.Load()
	next := make(map[CID]*createMsg, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cm.CID] = cm
	rt.colls.Store(&next)
	rt.collWrMu.Unlock()
}

func (rt *Runtime) collMeta(cid CID) *createMsg {
	return (*rt.colls.Load())[cid]
}

// location cache (hints only; authoritative state lives at home PEs)

func (rt *Runtime) cacheLoc(cid CID, key string, pe PE) {
	rt.loc.put(cid, key, pe)
}

func (rt *Runtime) cachedLoc(cid CID, key string) (PE, bool) {
	return rt.loc.get(cid, key)
}

// homePE returns the element's home PE, which tracks its location after
// migrations (Charm++-style location management). The hash runs over the
// full fixed PE space; elastic delegation then folds inactive slots onto
// their stand-ins, so homes stay stable across view changes for every slot
// that remains active.
func (rt *Runtime) homePE(cid CID, key string) PE {
	return rt.resolvePE(PE(idxHash(keyIdx(key)) % uint64(rt.totalPEs)))
}

// initialPE computes the deterministic initial placement of an element
// (delegated onto the active set in elastic mode).
func (rt *Runtime) initialPE(cm *createMsg, idx []int) PE {
	return rt.resolvePE(rt.initialPERaw(cm, idx))
}

func (rt *Runtime) initialPERaw(cm *createMsg, idx []int) PE {
	switch cm.Kind {
	case ckSingle:
		if cm.OnPE >= 0 {
			// A restored checkpoint may pin a chare to a PE beyond a shrunk
			// job's range; wrap instead of sending into the void.
			return PE(int(cm.OnPE) % rt.totalPEs)
		}
		return PE(uint32(cm.CID) % uint32(rt.totalPEs))
	case ckGroup:
		return PE(idx[0] % rt.totalPEs)
	case ckArray:
		if cm.MapName != "" {
			rt.mu.Lock()
			am := rt.maps[cm.MapName]
			rt.mu.Unlock()
			if am == nil {
				panic(fmt.Sprintf("core: array map %q not registered on node %d", cm.MapName, rt.nodeID))
			}
			return PE(am.ProcNum(idx, rt.totalPEs) % rt.totalPEs)
		}
		// default: contiguous blocks of the linearized index space
		n := numElems(cm.Dims)
		pos := linearize(idx, cm.Dims)
		return PE(pos * rt.totalPEs / n)
	case ckSparse:
		return rt.homePE(cm.CID, idxKey(idx))
	}
	panic("core: unknown collection kind")
}

func serializableKind(k msgKind) bool {
	switch k {
	case mInvoke, mFutureSet, mRedPartial:
		return true
	}
	return false
}
