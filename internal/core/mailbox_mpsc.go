package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// lfMailbox is the lock-free MPSC mailbox (DESIGN.md §3.9): a linked list of
// fixed-size segments whose slots producers claim with a per-segment atomic
// ticket counter. Senders never block and never take a lock; the single
// consumer walks segments in order and parks on a one-token channel when the
// queue is empty, so a push wakes it with one CAS + one non-blocking channel
// send instead of a mutex-held condvar signal.
//
// Producer protocol: load tailSeg, claim a ticket with tail.Add(1)-1.
//   - ticket < lfSegSize: store the message into that slot — done.
//   - ticket == lfSegSize: this producer overflowed first; it allocates the
//     next segment, stores its message at slot 0 of it, links seg.next, and
//     advances tailSeg. Installers are serialized by the chain itself (a
//     segment's tickets are only claimable once tailSeg points at it).
//   - ticket > lfSegSize: spin until tailSeg advances, then retry.
//
// Segments are never recycled (a stalled producer holding a stale segment
// reference makes pool reuse an ABA hazard), so steady-state push cost is one
// ticket Add + one slot store, with one segment allocation amortized over
// lfSegSize messages — zero allocations per message.
//
// Per-sender FIFO holds because one sender's successive claims land at
// strictly increasing (segment, slot) positions, and the consumer drains
// positions in order, spinning (Gosched) on a claimed-but-unstored slot.
//
// depth counts fully-stored messages: a producer increments it after the
// slot store, so depth > 0 guarantees the consumer finds a message at or
// after its cursor in bounded time. The park/wake handshake is Dekker-style:
// the consumer arms `parked` then re-checks depth; a producer increments
// depth then CASes `parked` — seq-cst atomics make one of the two observe
// the other, so no sleep is ever missed. Stale wake tokens (cap-1 channel)
// cause at most one spurious re-check.
//
// pushFront traffic (mExit only — cold) goes through a small mutex-guarded
// priority side queue drained before the main queue.

const lfSegSize = 512

type lfSeg struct {
	slots [lfSegSize]atomic.Pointer[Message]
	tail  atomic.Int64 // tickets claimed in this segment (may exceed lfSegSize)
	next  atomic.Pointer[lfSeg]
}

type lfMailbox struct {
	headSeg *lfSeg // consumer-only cursor
	headIdx int    // consumer-only: next slot index in headSeg

	tailSeg atomic.Pointer[lfSeg]
	depth   atomic.Int64
	closed  atomic.Bool

	parked atomic.Bool
	wakeCh chan struct{}

	prioMu sync.Mutex
	prio   []*Message
	prioN  atomic.Int32
}

func newLFMailbox() *lfMailbox {
	s := &lfSeg{}
	mb := &lfMailbox{headSeg: s, wakeCh: make(chan struct{}, 1)}
	mb.tailSeg.Store(s)
	return mb
}

// enqueue claims a slot and stores m, without the wake handshake.
func (mb *lfMailbox) enqueue(m *Message) {
	for {
		s := mb.tailSeg.Load()
		t := s.tail.Add(1) - 1
		switch {
		case t < lfSegSize:
			s.slots[t].Store(m)
			mb.depth.Add(1)
			return
		case t == lfSegSize:
			ns := &lfSeg{}
			ns.tail.Store(1)
			ns.slots[0].Store(m)
			s.next.Store(ns)
			mb.tailSeg.Store(ns)
			mb.depth.Add(1)
			return
		default:
			// Another producer is installing the next segment; wait it out.
			for mb.tailSeg.Load() == s {
				runtime.Gosched()
			}
		}
	}
}

// push enqueues m and wakes a parked consumer. It reports whether the
// mailbox was still open.
func (mb *lfMailbox) push(m *Message) bool {
	if mb.closed.Load() {
		return false
	}
	mb.enqueue(m)
	mb.wake()
	return true
}

// pushAll enqueues a batch in order with a single wakeup (ingress path).
func (mb *lfMailbox) pushAll(ms []*Message) bool {
	if len(ms) == 0 {
		return true
	}
	if mb.closed.Load() {
		return false
	}
	for _, m := range ms {
		mb.enqueue(m)
	}
	mb.wake()
	return true
}

// pushFront enqueues m ahead of the main queue (high-priority control
// traffic; mExit). Cold path: mutex-guarded side queue.
func (mb *lfMailbox) pushFront(m *Message) bool {
	if mb.closed.Load() {
		return false
	}
	mb.prioMu.Lock()
	mb.prio = append(mb.prio, m)
	mb.prioMu.Unlock()
	mb.prioN.Add(1)
	mb.wake()
	return true
}

// wake unparks the consumer if (and only if) it is parked or arming: one CAS
// on the fast path, one non-blocking token send when it hits.
func (mb *lfMailbox) wake() {
	if mb.parked.CompareAndSwap(true, false) {
		select {
		case mb.wakeCh <- struct{}{}:
		default:
		}
	}
}

// tryPop dequeues without blocking. It spins (Gosched) over a slot that has
// been claimed but not yet stored — depth > 0 proves the store is coming.
func (mb *lfMailbox) tryPop() (*Message, bool) {
	if mb.prioN.Load() > 0 {
		mb.prioMu.Lock()
		if len(mb.prio) > 0 {
			m := mb.prio[0]
			mb.prio = mb.prio[1:]
			mb.prioMu.Unlock()
			mb.prioN.Add(-1)
			return m, true
		}
		mb.prioMu.Unlock()
	}
	if mb.depth.Load() == 0 {
		return nil, false
	}
	for {
		if mb.headIdx == lfSegSize {
			ns := mb.headSeg.next.Load()
			for ns == nil {
				runtime.Gosched() // the overflowing producer is mid-install
				ns = mb.headSeg.next.Load()
			}
			mb.headSeg = ns
			mb.headIdx = 0
		}
		if m := mb.headSeg.slots[mb.headIdx].Load(); m != nil {
			mb.headSeg.slots[mb.headIdx].Store(nil) // release for GC
			mb.headIdx++
			mb.depth.Add(-1)
			return m, true
		}
		runtime.Gosched() // claimed but not yet stored
	}
}

// park blocks until a wake token arrives, unless mailbox work (or external
// work reported by also — the steal loop's deque scan) is already pending.
func (mb *lfMailbox) park(also func() bool) {
	mb.parked.Store(true)
	if mb.depth.Load() > 0 || mb.prioN.Load() > 0 || mb.closed.Load() || (also != nil && also()) {
		mb.parked.Store(false)
		return
	}
	<-mb.wakeCh
	mb.parked.Store(false)
}

func (mb *lfMailbox) len() int {
	n := mb.depth.Load() + int64(mb.prioN.Load())
	if n < 0 {
		n = 0
	}
	return int(n)
}

// close makes future pushes fail and unparks the consumer; already-queued
// messages still drain through tryPop.
func (mb *lfMailbox) close() {
	mb.closed.Store(true)
	mb.parked.Store(false)
	select {
	case mb.wakeCh <- struct{}{}:
	default:
	}
}
