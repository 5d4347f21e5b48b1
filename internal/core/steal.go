package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Work stealing (DESIGN.md §3.9): the PE scheduler. Messages for elements of
// stealable chare types (no threaded or when-gated entry methods) go through
// the element's run grant rather than straight to the entry method:
//
//   - The owner PE routes each message into the element's run queue
//     (elemRunq, a small mutex-guarded FIFO). Routing stays owner-side, so
//     per-sender FIFO order to an element is exactly the owner's mailbox
//     order — stealing moves whole elements, never individual messages.
//   - The first message to land in an empty run queue acquires the
//     element's run grant (sched CAS 0→1) and publishes the element on the
//     owner's bounded Chase-Lev deque. The grant is the mutual exclusion:
//     an element executes on exactly one PE at a time, whichever PE holds
//     its grant.
//   - Idle PEs pop their own deque from the bottom; thieves steal from the
//     top of a victim's deque (randomized victim choice with last-victim
//     affinity). A stolen grant executes the element's queued messages on
//     the thief, then releases.
//   - An entry method that requests owner-only work (Migrate, AtSync) ends
//     its grant's batch: the rest of the batch goes back on the run queue,
//     and the owner runs the tail (migration, AtSync stats) before any later
//     message, as recheck does for pinned elements. A thief hands such a
//     grant back to the owner as an mRunGrant message.
//   - Deque overflow parks the grant in the pushing PE's private grantOvf
//     FIFO until deque slots free up, so grants are never dropped and
//     overflow costs no allocation.
//
// Quiescence counting treats the run-queue hop as one extra send/recv pair
// (armed at runqPush, closed after the grant has executed the message), and
// mRunGrant itself is countable, so QD cannot fire while granted work is
// parked in a deque or run queue.
//
// FT recovery and elastic drain/leave quiesce thieves through the
// stealPause/stolenActive handshake (pauseStealing): new steals stop, and
// any grant a thief already holds is handed back to its owner untouched.

// defaultDequeSize is each PE's deque capacity (a power of two: ring index
// masking). grantCap caps outstanding published grants well below it: past
// that point thieves are not keeping up, and further publishing only buys
// runq materialization and GC pressure (see runqPush).
const (
	defaultDequeSize = 256
	grantCap         = 64
)

// elemRunq is one element's FIFO of granted-but-unexecuted messages. The
// mutex only ever contends between the owner (push, while routing) and the
// current grant holder (takeAll); both critical sections are a few words.
type elemRunq struct {
	mu   sync.Mutex
	q    []*Message
	free []*Message // spare backing array, recycled between grant batches
}

func (r *elemRunq) push(m *Message) {
	r.mu.Lock()
	r.q = append(r.q, m)
	r.mu.Unlock()
}

// takeAll removes and returns the queued messages in FIFO order. The grant
// holder hands the consumed batch back through recycle, so steady-state
// grants reuse the same two backing arrays instead of allocating per batch.
func (r *elemRunq) takeAll() []*Message {
	r.mu.Lock()
	q := r.q
	r.q = r.free
	r.free = nil
	r.mu.Unlock()
	return q
}

// recycle returns a fully consumed takeAll batch for reuse. Safe because
// the run grant serializes consumers: the caller is done with the slice.
func (r *elemRunq) recycle(q []*Message) {
	if cap(q) == 0 {
		return
	}
	for i := range q {
		q[i] = nil // drop Message references for the GC
	}
	r.mu.Lock()
	if r.free == nil {
		r.free = q[:0]
	}
	r.mu.Unlock()
}

// requeue puts ms back at the head of the queue, ahead of anything pushed
// since the takeAll they came from, so FIFO order is unchanged.
func (r *elemRunq) requeue(ms []*Message) {
	r.mu.Lock()
	r.q = append(append(make([]*Message, 0, len(ms)+len(r.q)), ms...), r.q...)
	r.mu.Unlock()
}

func (r *elemRunq) len() int {
	r.mu.Lock()
	n := len(r.q)
	r.mu.Unlock()
	return n
}

// stealDeque is a fixed-capacity Chase-Lev work-stealing deque of elements
// (run grants). The owner pushes and pops at the bottom; thieves steal from
// the top with a CAS. top is monotonically increasing, so a thief's CAS can
// only succeed on the element it read (slot reuse requires bottom to lap the
// capacity, which pushBottom rejects while top is that far behind).
type stealDeque struct {
	mask   int64
	buf    []atomic.Pointer[element]
	top    atomic.Int64
	bottom atomic.Int64
}

func newStealDeque(size int) *stealDeque {
	return &stealDeque{mask: int64(size) - 1, buf: make([]atomic.Pointer[element], size)}
}

// pushBottom publishes el at the bottom; false when the deque is full (a
// stale top read only under-estimates free space, never over-estimates).
func (d *stealDeque) pushBottom(el *element) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.buf)) {
		return false
	}
	d.buf[b&d.mask].Store(el)
	d.bottom.Store(b + 1)
	return true
}

// popBottom takes the most recently pushed element; on the last element it
// races thieves with a CAS on top.
func (d *stealDeque) popBottom() (*element, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		d.bottom.Store(b + 1)
		return nil, false
	}
	el := d.buf[b&d.mask].Load()
	if t == b {
		if !d.top.CompareAndSwap(t, t+1) {
			d.bottom.Store(b + 1)
			return nil, false // a thief got it first
		}
		d.bottom.Store(b + 1)
		return el, true
	}
	return el, true
}

// stealTop takes the oldest element on behalf of a thief.
func (d *stealDeque) stealTop() (*element, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	el := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	return el, true
}

func (d *stealDeque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// ---- owner side: routing into run queues ----

// runqPush parks m in el's run queue and ensures some PE holds (or will
// receive) the element's run grant. Only the owner's scheduler goroutine
// calls this (routing is owner-side).
func (p *peState) runqPush(el *element, m *Message) {
	// Inline fast path: a published grant only pays off when some sibling
	// is parked and can steal it. With nobody idle, acquire the grant and
	// execute here — this keeps balanced workloads at the cost of one CAS
	// over a direct call (no deque round trip, no runq) while skew still
	// publishes: under skew the starved PEs park, nIdle rises,
	// and the slow path below shares every subsequent grant.
	//
	// The grantCap clause throttles publishing the same way when thieves
	// are not keeping up: once this PE already has grantCap unstolen grants
	// outstanding (or overflow parked behind a full deque), another one
	// cannot start any sooner anywhere else, and at high chare counts the
	// per-publish runq materialization is pure GC ballast. Skew is
	// unaffected — there the thieves drain the deque continuously, so
	// occupancy stays below the cap and publishing resumes at once.
	if (p.rt.nIdle.Load() == 0 ||
		p.deque.size() >= grantCap || len(p.grantOvf) > p.ovfHead) &&
		el.sched.CompareAndSwap(0, 1) {
		p.runInline(el, m)
		return
	}
	el.ensureRunq()
	p.rt.qdCountSend(m.Kind) // re-arm QD across the runq hop
	p.rt.runqBacklog.Add(1)
	el.runq.push(m)
	if el.sched.CompareAndSwap(0, 1) {
		p.pushGrant(el)
	}
}

// runInline executes m under a grant the routing owner just acquired,
// without publishing it. No new runq messages can arrive while we hold the
// grant — runq pushes happen only on this goroutine — so the release below
// needs no re-check loop. Leftovers from a release race must run first:
// then m joins them and the grant runs as a whole.
func (p *peState) runInline(el *element, m *Message) {
	if el.runq != nil && el.runq.len() > 0 {
		p.rt.qdCountSend(m.Kind)
		p.rt.runqBacklog.Add(1)
		el.runq.push(m)
		p.runGrant(el)
		return
	}
	el.base.ec.p = p
	p.execGranted(el, m)
	if p.grantTail(el) {
		el.sched.Store(0)
	}
}

// pushGrant publishes a held run grant on this PE's deque and wakes one
// idle sibling. On deque overflow the grant parks in grantOvf, a private
// FIFO only this PE's scheduler goroutine touches (pushGrant runs on the
// routing owner or on the grant-holding thief — either way, this
// goroutine), and refillDeque feeds it back as slots free up. A full deque
// already means hundreds of stealable grants, so skipping the wake is fine.
func (p *peState) pushGrant(el *element) {
	if !p.deque.pushBottom(el) {
		p.grantOvf = append(p.grantOvf, el)
		return
	}
	rt := p.rt
	if rt.nIdle.Load() > 0 {
		for _, q := range rt.pes {
			if q != p && q.idle.CompareAndSwap(true, false) {
				rt.nIdle.Add(-1)
				q.mbox.wake()
				break
			}
		}
	}
}

// refillDeque moves parked overflow grants onto the deque while slots
// last. Called only by this PE's scheduler goroutine.
func (p *peState) refillDeque() {
	for p.ovfHead < len(p.grantOvf) {
		if !p.deque.pushBottom(p.grantOvf[p.ovfHead]) {
			return
		}
		p.grantOvf[p.ovfHead] = nil
		p.ovfHead++
	}
	p.grantOvf = p.grantOvf[:0]
	p.ovfHead = 0
}

// ---- the scheduler loop ----

// loop is the PE scheduler: Charm++-style message-driven execution, one
// entry method per chare at a time. It drains the mailbox first, then this
// PE's published run grants, then steals from siblings, and parks only when
// all three are empty.
func (p *peState) loop() {
	tr := p.rt.cfg.Trace
	lpe := p.lpe()
	for !p.exiting {
		if m, ok := p.mbox.tryPop(); ok {
			p.dispatch(m)
			continue
		}
		// Feeding overflow back before popping guarantees the park below is
		// never reached with grants still parked in grantOvf: a non-empty
		// overflow either refills the deque (popBottom succeeds) or the
		// deque was already full (popBottom succeeds anyway).
		if len(p.grantOvf) > p.ovfHead {
			p.refillDeque()
		}
		if el, ok := p.deque.popBottom(); ok {
			p.runGrant(el)
			continue
		}
		if p.trySteal() {
			continue
		}
		if p.rt.agg != nil {
			p.rt.agg.flushAll()
		}
		// Nothing anywhere: park until a mailbox push or a sibling publishes
		// a grant (parkCheck re-checks the deques inside the park handshake,
		// so a grant pushed before we finished arming is never slept through).
		p.idle.Store(true)
		p.rt.nIdle.Add(1)
		var idleAt time.Duration
		if tr != nil {
			idleAt = tr.Since()
		}
		p.mbox.park(p.alsoFn)
		if p.idle.CompareAndSwap(true, false) {
			p.rt.nIdle.Add(-1)
		}
		if tr != nil {
			tr.Idle(lpe, idleAt, tr.Since()-idleAt)
		}
	}
	p.shutdownThreads()
}

// parkCheck reports pending deque work anywhere on the node; used as the
// park re-check so the wake-idle protocol cannot miss a published grant.
func (p *peState) parkCheck() bool {
	if p.deque.size() > 0 {
		return true
	}
	for _, q := range p.rt.pes {
		if q != p && q.deque.size() > 0 {
			return true
		}
	}
	return false
}

// trySteal probes the last successful victim first, then a bounded number
// of random victims. Zero allocations on a miss (alloc-guarded).
func (p *peState) trySteal() bool {
	rt := p.rt
	pes := rt.pes
	if len(pes) <= 1 || rt.stealPause.Load() != 0 {
		return false
	}
	if v := p.lastVictim; v >= 0 && v < len(pes) && pes[v] != p {
		if el, ok := pes[v].deque.stealTop(); ok {
			p.stoleFrom(el, v)
			return true
		}
	}
	for i := 0; i < 2; i++ {
		v := p.stealRng.Intn(len(pes))
		if pes[v] == p {
			continue
		}
		if el, ok := pes[v].deque.stealTop(); ok {
			p.stoleFrom(el, v)
			return true
		}
	}
	p.lastVictim = -1
	p.stats.stealFails.Add(1)
	if met := rt.met; met != nil {
		met.stealsFailed.Inc()
	}
	return false
}

// stoleFrom accounts for a successful steal and executes the stolen grant.
func (p *peState) stoleFrom(el *element, victim int) {
	p.lastVictim = victim
	p.stats.steals.Add(1)
	if met := p.rt.met; met != nil {
		met.steals.Inc()
	}
	if tr := p.rt.cfg.Trace; tr != nil {
		tr.Steal(p.lpe(), victim, tr.Since())
	}
	p.runGrant(el)
}

// ---- grant execution ----

// runGrant executes el's queued messages while holding its run grant. The
// caller must hold the grant (sched == 1 on its behalf); runGrant releases
// it, re-publishes it, or hands it to the owner before returning.
func (p *peState) runGrant(el *element) {
	rt := p.rt
	if p != el.owner {
		// Dekker handshake with pauseStealing: publish that a thief holds a
		// grant, then re-check the pause flag. The pauser orders its writes
		// the other way, so one side always observes the other.
		rt.stolenActive.Add(1)
		defer rt.stolenActive.Add(-1)
		if rt.stealPause.Load() != 0 {
			p.handback(el)
			return
		}
	}
	// The Chare API (Contribute, NewFuture, AtSync, sends) reaches its PE
	// through ec.p: point it at the executing PE for the duration. Safe —
	// the grant serializes every executor of this element.
	el.base.ec.p = p
	// Tail work requested before the grant reached us (a thief's handback,
	// an owner-ordered migration) runs before any queued message.
	if !p.grantTail(el) {
		return
	}
	for rounds := 0; ; rounds++ {
		p.runBatch(el)
		if !p.grantTail(el) {
			return
		}
		// Release, then re-check: a runqPush that lost the sched CAS to us
		// relies on this re-check to get its message run.
		el.sched.Store(0)
		if el.runq.len() == 0 && el.migrateTo.Load() < 0 {
			return
		}
		if !el.sched.CompareAndSwap(0, 1) {
			return // the racing runqPush (or an owner op) took the grant
		}
		if rounds >= 4 {
			// Steady inflow: requeue on our deque instead of starving the
			// mailbox behind one hot element.
			p.pushGrant(el)
			return
		}
	}
}

// runBatch executes el's queued messages in FIFO order. It stops after an
// entry method that requests a migration or reaches AtSync and puts the
// untaken messages back at the head of the run queue, so the owner-only
// tail runs before any later message — the order recheck gives pinned
// elements.
func (p *peState) runBatch(el *element) {
	rt := p.rt
	batch := el.runq.takeAll()
	for i, m := range batch {
		synced := el.atSync.Load()
		rt.runqBacklog.Add(-1)
		p.execGranted(el, m)
		rt.qdCountRecv(m.Kind) // close the runq hop armed at runqPush
		if i+1 < len(batch) && (el.migrateTo.Load() >= 0 || !synced && el.atSync.Load()) {
			el.runq.requeue(batch[i+1:])
			break
		}
	}
	el.runq.recycle(batch)
}

// grantTail performs pending owner-only tail work — the grant-path
// analogue of recheck's tail. Migration and AtSync stats need the routing
// PE's maps, so a thief hands the grant home instead. It reports whether
// the caller still holds the grant on a live element.
func (p *peState) grantTail(el *element) bool {
	migrating := el.migrateTo.Load() >= 0
	if !migrating && !el.atSync.Load() {
		return true
	}
	if p != el.owner {
		p.handback(el)
		return false
	}
	if migrating {
		p.migrateOut(el)
		return !el.dead // migrated away: migrateOut forwarded the runq
	}
	p.lbMaybeSendStats(el.coll)
	return true
}

// execGranted runs one granted message on the executing PE.
func (p *peState) execGranted(el *element, m *Message) {
	switch m.Kind {
	case mInvoke:
		info := p.resolveEM(el.coll, m)
		p.invokeEMInner(el, info, m)
	case mChanMsg:
		cm := m.Ctl.(*chanMsg)
		if needsRebind(cm.Val) {
			cm.Val = rebindPure(cm.Val, p.rt, p, 0)
		}
		p.chanDeliver(el, cm)
	default:
		panic("core: non-stealable message kind in run queue")
	}
}

// handback transfers a held run grant to the element's owner as a message.
func (p *peState) handback(el *element) {
	p.rt.send(el.owner.pe, &Message{Kind: mRunGrant, CID: el.cid, Src: p.pe,
		Ctl: &runGrantMsg{CID: el.cid, Key: el.key}})
}

// grabGrant lets the owner force-acquire an element's grant for an
// owner-side operation (LB/elastic-ordered migration). It returns true when
// the caller now holds the grant; on false, the current holder's release
// re-check is guaranteed to observe the already-stored migrateTo and route
// the grant back to the owner.
func (p *peState) grabGrant(el *element) bool {
	return el.sched.CompareAndSwap(0, 1)
}

// ---- steal pause (FT recovery, elastic drain/leave) ----

// pauseStealing stops thieves: no new steals begin, and every grant already
// executing on a non-owner PE finishes its current message batch and is
// handed back to its owner before this returns. Pauses nest; each
// pauseStealing pairs with one resumeStealing.
func (rt *Runtime) pauseStealing() {
	rt.stealPause.Add(1)
	for rt.stolenActive.Load() != 0 {
		runtime.Gosched()
	}
}

func (rt *Runtime) resumeStealing() {
	rt.stealPause.Add(-1)
}

// StealsTotal reports the number of run grants this node's PEs have stolen
// from sibling deques since start.
func (rt *Runtime) StealsTotal() int64 {
	var n int64
	for _, p := range rt.pes {
		n += p.stats.steals.Load()
	}
	return n
}

// ensureRunq materializes the element's run queue. Called only while the
// caller either is the routing owner goroutine or holds the run grant, and
// always before the grant is published to other PEs, so the write is
// ordered by the deque (or sched CAS) publication.
func (el *element) ensureRunq() {
	if el.runq == nil {
		el.runq = &elemRunq{}
	}
}
