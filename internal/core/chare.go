package core

import (
	"fmt"
	"sync"
	"time"

	"charmgo/internal/expr"
)

// Chare is the distributed-object base type (paper section II-B). User chare
// classes embed it:
//
//	type Worker struct {
//	    core.Chare
//	    Count int
//	}
//
// Exported methods of the embedding struct become entry methods, remotely
// invocable through proxies. Exported fields are the chare's migratable
// state (serialized on migration, like pickling in CharmPy) and are visible
// to when/wait conditions as self.field_name.
type Chare struct {
	// ThisIndex is the chare's index within its collection (paper: the
	// thisIndex attribute).
	ThisIndex []int

	ec *elemCtx
}

// elemCtx wires a chare instance to its hosting PE.
type elemCtx struct {
	p    *peState
	el   *element
	coll *localColl
}

func (c *Chare) chareBase() *Chare { return c }

func (c *Chare) ctx() *elemCtx {
	if c.ec == nil {
		panic("core: chare is not attached to the runtime (was it created with New*/Group/Array?)")
	}
	return c.ec
}

// MyPE returns the PE currently hosting this chare — its owner, even while a
// sibling PE runs a stolen run grant for it (steal.go).
func (c *Chare) MyPE() PE { return c.ctx().el.owner.pe }

// NumPEs returns the total number of PEs in the job (paper: charm.numPes()).
func (c *Chare) NumPEs() int { return c.ctx().p.rt.totalPEs }

// Runtime returns the hosting node runtime.
func (c *Chare) Runtime() *Runtime { return c.ctx().p.rt }

// Exit terminates the parallel program (paper: charm.exit()).
func (c *Chare) Exit() { c.ctx().p.rt.Exit() }

// ThisProxy returns a proxy to the chare's whole collection (paper: the
// thisProxy attribute).
func (c *Chare) ThisProxy() Proxy {
	ec := c.ctx()
	return Proxy{CID: ec.el.cid, rt: ec.p.rt, p: ec.p}
}

// SelfProxy returns a proxy to this specific element.
func (c *Chare) SelfProxy() Proxy {
	ec := c.ctx()
	return Proxy{CID: ec.el.cid, Elem: ec.el.idx, rt: ec.p.rt, p: ec.p}
}

// ---- collection creation (paper sections II-B, II-C, II-G) ----

// typeNameOf accepts a registered type name or a prototype value.
func typeNameOf(t any) string {
	switch v := t.(type) {
	case string:
		return v
	case Chareable:
		return chareTypeName(v)
	}
	panic(fmt.Sprintf("core: expected chare type name or prototype, got %T", t))
}

func chareTypeName(v Chareable) string {
	rt := fmt.Sprintf("%T", v) // "*pkg.Type"
	for i := len(rt) - 1; i >= 0; i-- {
		if rt[i] == '.' {
			return rt[i+1:]
		}
	}
	return rt
}

func (c *Chare) allocCID() CID {
	ec := c.ctx()
	ec.p.cidSeq++
	return makeCID(ec.p.pe, ec.p.cidSeq)
}

func (c *Chare) createColl(cm *createMsg) Proxy {
	ec := c.ctx()
	cm.Creator = ec.p.pe
	ec.p.rt.putCollMeta(cm)
	ec.p.rt.bcastAllPEs(&Message{Kind: mCreate, Src: ec.p.pe, Ctl: cm})
	return Proxy{CID: cm.CID, rt: ec.p.rt, p: ec.p}
}

// NewChare creates a single chare of the given type on the given PE (AnyPE
// lets the runtime choose) and returns a proxy to it.
func (c *Chare) NewChare(chareType any, onPE PE, args ...any) Proxy {
	pr := c.createColl(&createMsg{
		CID: c.allocCID(), Kind: ckSingle, Type: typeNameOf(chareType),
		OnPE: onPE, Args: args,
	})
	pr.Elem = []int{0}
	return pr
}

// NewGroup creates a Group: one chare of the given type per PE.
func (c *Chare) NewGroup(chareType any, args ...any) Proxy {
	return c.createColl(&createMsg{
		CID: c.allocCID(), Kind: ckGroup, Type: typeNameOf(chareType), Args: args,
	})
}

// NewArray creates a dense N-dimensional chare array with the given
// dimensions. Placement uses the default block map.
func (c *Chare) NewArray(chareType any, dims []int, args ...any) Proxy {
	if len(dims) == 0 {
		panic("core: NewArray requires at least one dimension")
	}
	return c.createColl(&createMsg{
		CID: c.allocCID(), Kind: ckArray, Type: typeNameOf(chareType),
		Dims: append([]int(nil), dims...), Args: args,
	})
}

// NewArrayMapped is NewArray with a registered ArrayMap controlling initial
// placement (paper section II-G1).
func (c *Chare) NewArrayMapped(chareType any, dims []int, mapName string, args ...any) Proxy {
	rt := c.ctx().p.rt
	rt.mu.Lock()
	_, known := rt.maps[mapName]
	rt.mu.Unlock()
	if !known {
		panic(fmt.Sprintf("core: array map %q not registered (RegisterMap it on every node)", mapName))
	}
	return c.createColl(&createMsg{
		CID: c.allocCID(), Kind: ckArray, Type: typeNameOf(chareType),
		Dims: append([]int(nil), dims...), MapName: mapName, Args: args,
	})
}

// NewSparseArray creates a sparse array with an n-dimensional index space;
// elements are inserted dynamically with Proxy.Insert and finalized with
// Proxy.DoneInserting (paper: ckInsert/ckDoneInserting).
func (c *Chare) NewSparseArray(chareType any, ndims int, args ...any) Proxy {
	return c.createColl(&createMsg{
		CID: c.allocCID(), Kind: ckSparse, Type: typeNameOf(chareType),
		NDims: ndims, Args: args,
	})
}

// ---- futures (paper section II-H3) ----

// CreateFuture creates a future owned by this chare's PE. With no arguments
// the future is fulfilled by a single Send; CreateFuture(n) waits for n
// Sends (Get then returns a []any of the values in arrival order).
func (c *Chare) CreateFuture(n ...int) Future {
	need := 1
	if len(n) > 0 {
		need = n[0]
	}
	ec := c.ctx()
	return ec.p.newFuture(need, false)
}

// ---- reductions (paper section II-F) ----

// Contribute contributes data to a reduction over this chare's collection.
// All elements must call it once per reduction; reductions complete
// asynchronously and multiple may be in flight. The target is a Target
// (proxy entry method) or a Future. Use NopReducer with nil data for an
// empty reduction (a barrier).
func (c *Chare) Contribute(data any, reducer Reducer, target any) {
	ec := c.ctx()
	var tgt Target
	switch t := target.(type) {
	case Target:
		tgt = t
	case Future:
		tgt = Target{Fut: t.Ref, IsFut: true}
	case *Future:
		tgt = Target{Fut: t.Ref, IsFut: true}
	default:
		panic(fmt.Sprintf("core: invalid reduction target %T", target))
	}
	ec.p.contribute(ec.el, data, reducer, tgt)
}

// ---- waiting (paper section II-H2) ----

var waitExprCache sync.Map // string -> *expr.Expr

func compileCond(cond string) *expr.Expr {
	if e, ok := waitExprCache.Load(cond); ok {
		return e.(*expr.Expr)
	}
	e, err := expr.Compile(cond)
	if err != nil {
		panic(fmt.Sprintf("core: wait condition: %v", err))
	}
	waitExprCache.Store(cond, e)
	return e
}

// Wait suspends the calling (threaded) entry method until the condition —
// a Python-style expression over self — becomes true (paper: self.wait()).
func (c *Chare) Wait(cond string) {
	ec := c.ctx()
	e := compileCond(cond)
	ok, err := e.EvalBool(emEnv{self: ec.el.iface})
	if err != nil {
		panic(fmt.Sprintf("core: wait-condition %q: %v", cond, err))
	}
	if ok {
		return
	}
	th := ec.p.curThread
	if th == nil {
		panic("core: Wait requires a threaded entry method (mark it with core.Threaded)")
	}
	ec.el.waiters = append(ec.el.waiters, &waiter{e: e, th: th})
	ec.p.suspendCur()
}

// ---- migration and load balancing (paper sections II-I, II-J) ----

// Migrate asks the runtime to move this chare to the given PE once the
// current entry method completes (paper: self.migrate(toPe)).
func (c *Chare) Migrate(toPE PE) {
	ec := c.ctx()
	if int(toPE) < 0 || int(toPE) >= ec.p.rt.totalPEs {
		panic(fmt.Sprintf("core: Migrate to invalid PE %d", toPE))
	}
	if ec.el.liveThreads > 1 || (ec.el.liveThreads == 1 && ec.p.curThread == nil) {
		panic("core: cannot migrate a chare with suspended threaded entry methods")
	}
	ec.el.migrateTo.Store(int32(toPE))
}

// AtSync tells the runtime this chare has reached a load-balancing
// synchronization point. When every element of the collection has, the
// configured LB strategy runs, elements migrate, and each element's
// ResumeFromSync entry method (if defined) is invoked.
func (c *Chare) AtSync() {
	ec := c.ctx()
	ec.el.atSync.Store(true)
	// On a thief PE the stats scan must wait for the owner: the grant tail
	// (steal.go runGrant) hands the grant home, and the owner runs the scan.
	if ec.p == ec.el.owner {
		ec.p.lbMaybeSendStats(ec.coll)
	}
}

// Load returns the wall-clock entry-method time accumulated by this chare
// since the last load-balancing round (exposed for tests and examples), or
// the figure last given to SetLoad in this round.
func (c *Chare) Load() float64 {
	return c.ctx().el.loadDur().Seconds()
}

// SetLoad replaces this chare's measured load for the current
// load-balancing window with an application-supplied figure, in seconds
// (Charm++'s setObjTime). Entry-method time is not added on top of it until
// the window ends at the next ResumeFromSync, so the figure the LB strategy
// sees is exactly the one given; call it just before AtSync. Useful when
// wall time misstates a chare's work — e.g. when its PE's thread shares a
// core with other processes and is descheduled mid-method.
func (c *Chare) SetLoad(seconds float64) {
	el := c.ctx().el
	el.userLoad.Store(true)
	el.setLoad(time.Duration(seconds * float64(time.Second)))
}
