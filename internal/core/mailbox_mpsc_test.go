package core

import (
	"sync"
	"testing"
	"time"
)

// msgWithSeq tags a message with a producer id and per-producer sequence via
// the Src/MID fields (unused by the mailbox itself).
func msgWithSeq(producer int, seq int32) *Message {
	return &Message{Kind: mInvoke, Src: PE(producer), MID: seq}
}

// popWait consumes the way the PE scheduler loop does — tryPop, and park
// while the mailbox is empty — and gives up (ok=false) once the mailbox is
// closed and drained.
func popWait(mb *lfMailbox) (*Message, bool) {
	for {
		if m, ok := mb.tryPop(); ok {
			return m, true
		}
		if mb.closed.Load() {
			return nil, false
		}
		mb.park(nil)
	}
}

func TestLFMailboxFIFOSingleProducer(t *testing.T) {
	mb := newLFMailbox()
	const n = 4 * lfSegSize // cross several segment boundaries
	for i := int32(0); i < n; i++ {
		if !mb.push(msgWithSeq(0, i)) {
			t.Fatal("push on open mailbox failed")
		}
	}
	if got := mb.len(); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	for i := int32(0); i < n; i++ {
		m, ok := mb.tryPop()
		if !ok || m.MID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
	if _, ok := mb.tryPop(); ok {
		t.Fatal("tryPop on empty mailbox returned a message")
	}
}

func TestLFMailboxConcurrentProducersPerSenderFIFO(t *testing.T) {
	mb := newLFMailbox()
	const producers = 8
	const perProducer = 5000
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := int32(0); i < perProducer; i++ {
				mb.push(msgWithSeq(pr, i))
			}
		}(pr)
	}
	got := 0
	next := [producers]int32{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < producers*perProducer {
			m, ok := mb.tryPop()
			if !ok {
				continue
			}
			pr := int(m.Src)
			if m.MID != next[pr] {
				t.Errorf("producer %d: got seq %d, want %d", pr, m.MID, next[pr])
				return
			}
			next[pr]++
			got++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer stalled: drained %d of %d", got, producers*perProducer)
	}
}

func TestLFMailboxPushAllOrder(t *testing.T) {
	mb := newLFMailbox()
	batch := make([]*Message, 1000)
	for i := range batch {
		batch[i] = msgWithSeq(0, int32(i))
	}
	if !mb.pushAll(batch) {
		t.Fatal("pushAll failed")
	}
	for i := int32(0); i < 1000; i++ {
		m, ok := mb.tryPop()
		if !ok || m.MID != i {
			t.Fatalf("pushAll order broken at %d: %v ok=%v", i, m, ok)
		}
	}
}

func TestLFMailboxPushFrontPriority(t *testing.T) {
	mb := newLFMailbox()
	mb.push(msgWithSeq(0, 1))
	mb.push(msgWithSeq(0, 2))
	mb.pushFront(&Message{Kind: mExit, MID: 99})
	m, ok := mb.tryPop()
	if !ok || m.Kind != mExit {
		t.Fatalf("pushFront message did not pop first: %v", m)
	}
	if m, _ := mb.tryPop(); m.MID != 1 {
		t.Fatalf("main queue order broken after pushFront: %v", m)
	}
}

func TestLFMailboxParkWake(t *testing.T) {
	mb := newLFMailbox()
	popped := make(chan *Message, 1)
	go func() {
		m, ok := popWait(mb)
		if ok {
			popped <- m
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	mb.push(msgWithSeq(0, 7))
	select {
	case m := <-popped:
		if m.MID != 7 {
			t.Fatalf("woke with wrong message: %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push did not wake the parked consumer")
	}
}

func TestLFMailboxParkAlso(t *testing.T) {
	mb := newLFMailbox()
	// park must return immediately when the external-work probe fires, even
	// with an empty queue and no wake token.
	ret := make(chan struct{})
	go func() {
		mb.park(func() bool { return true })
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(5 * time.Second):
		t.Fatal("park ignored the also() probe")
	}
}

func TestLFMailboxCloseDrains(t *testing.T) {
	mb := newLFMailbox()
	mb.push(msgWithSeq(0, 1))
	mb.push(msgWithSeq(0, 2))
	mb.close()
	if mb.push(msgWithSeq(0, 3)) {
		t.Fatal("push after close succeeded")
	}
	if m, ok := popWait(mb); !ok || m.MID != 1 {
		t.Fatalf("queued message lost at close: %v ok=%v", m, ok)
	}
	if m, ok := popWait(mb); !ok || m.MID != 2 {
		t.Fatalf("queued message lost at close: %v ok=%v", m, ok)
	}
	if _, ok := popWait(mb); ok {
		t.Fatal("pop on closed+drained mailbox returned a message")
	}
}

func TestLFMailboxCloseUnparks(t *testing.T) {
	mb := newLFMailbox()
	ret := make(chan bool, 1)
	go func() {
		_, ok := popWait(mb)
		ret <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	mb.close()
	select {
	case ok := <-ret:
		if ok {
			t.Fatal("pop returned a message from an empty closed mailbox")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unpark the consumer")
	}
}

// TestLFMailboxPushAllocs pins the steady-state push path at zero
// allocations per message (segment allocation amortizes to 1/512 per push
// and the run below tolerates that sliver). Skipped under -race: the race
// runtime instruments atomics with allocations of its own.
func TestLFMailboxPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	mb := newLFMailbox()
	m := msgWithSeq(0, 0)
	avg := testing.AllocsPerRun(2000, func() {
		mb.push(m)
		mb.tryPop()
	})
	if avg > 0.05 {
		t.Fatalf("lock-free push allocates %.3f objects/op, want ~0 (amortized segment only)", avg)
	}
}

// TestMailboxFIFO interleaves pushes and pops so the consumer repeatedly
// catches up with the producer mid-segment and then follows it across
// segment boundaries.
func TestMailboxFIFO(t *testing.T) {
	mb := newLFMailbox()
	next, expect := int32(0), int32(0)
	for round := 0; round < 3*lfSegSize/2; round++ {
		for i := 0; i < 3; i++ {
			mb.push(msgWithSeq(0, next))
			next++
		}
		for i := 0; i < 2; i++ {
			m, ok := mb.tryPop()
			if !ok || m.MID != expect {
				t.Fatalf("round %d: got %v ok=%v, want %d", round, m, ok, expect)
			}
			expect++
		}
	}
	for ; expect < next; expect++ {
		if m, ok := mb.tryPop(); !ok || m.MID != expect {
			t.Fatalf("drain: got %v ok=%v, want %d", m, ok, expect)
		}
	}
}

// TestMailboxPushFront: a pushFront message always pops next, however often
// it is interleaved with the main queue and wherever the main queue's head
// and tail sit relative to segment boundaries.
func TestMailboxPushFront(t *testing.T) {
	mb := newLFMailbox()
	next, expect := int32(0), int32(0)
	for round := 0; round < lfSegSize; round++ {
		for i := 0; i < 7; i++ {
			mb.push(msgWithSeq(0, next))
			next++
		}
		mb.pushFront(&Message{Kind: mExit, MID: -1})
		if m, ok := mb.tryPop(); !ok || m.MID != -1 {
			t.Fatalf("round %d: pushFront not first: %v ok=%v", round, m, ok)
		}
		for i := 0; i < 5; i++ {
			m, ok := mb.tryPop()
			if !ok || m.MID != expect {
				t.Fatalf("round %d: got %v ok=%v, want %d", round, m, ok, expect)
			}
			expect++
		}
	}
	for ; expect < next; expect++ {
		if m, ok := mb.tryPop(); !ok || m.MID != expect {
			t.Fatalf("drain: got %v ok=%v, want %d", m, ok, expect)
		}
	}
	if mb.len() != 0 {
		t.Fatalf("len = %d after drain", mb.len())
	}
}

// TestMailboxRingWraparound: the consumer keeps pace with the producer, so
// the queue stays short while its head and tail cross many segment
// boundaries together, with a pushFront on every round.
func TestMailboxRingWraparound(t *testing.T) {
	mb := newLFMailbox()
	next, expect := int32(0), int32(0)
	for round := 0; round < 3*lfSegSize; round++ {
		for i := 0; i < 5; i++ {
			mb.push(msgWithSeq(0, next))
			next++
		}
		mb.pushFront(&Message{Kind: mExit, MID: -1})
		if m, ok := mb.tryPop(); !ok || m.MID != -1 {
			t.Fatalf("round %d: pushFront not first: %v ok=%v", round, m, ok)
		}
		for ; expect < next; expect++ {
			if m, ok := mb.tryPop(); !ok || m.MID != expect {
				t.Fatalf("round %d: got %v ok=%v, want %d", round, m, ok, expect)
			}
		}
		if mb.len() != 0 {
			t.Fatalf("round %d: len = %d after drain", round, mb.len())
		}
	}
}

// TestMailboxGrowUnwrapped: filling an empty mailbox well past one segment
// in a single run links new segments behind an untouched head; len tracks
// every push, the drain is FIFO, and the drained mailbox keeps working.
func TestMailboxGrowUnwrapped(t *testing.T) {
	mb := newLFMailbox()
	const n = 2*lfSegSize + 100
	for i := int32(0); i < n; i++ {
		mb.push(msgWithSeq(0, i))
		if got := mb.len(); got != int(i)+1 {
			t.Fatalf("after push %d: len = %d", i, got)
		}
	}
	for i := int32(0); i < n; i++ {
		if m, ok := mb.tryPop(); !ok || m.MID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
	if _, ok := mb.tryPop(); ok {
		t.Fatal("tryPop on drained mailbox returned a message")
	}
	mb.push(msgWithSeq(0, n))
	if m, ok := mb.tryPop(); !ok || m.MID != n {
		t.Fatalf("push after drain: got %v ok=%v", m, ok)
	}
}

// TestMailboxGrowWrapped: the consumer's head sits near the end of a
// segment when the producer's tail overflows into the next one, so two
// segments hold live messages at once.
func TestMailboxGrowWrapped(t *testing.T) {
	mb := newLFMailbox()
	next := int32(0)
	for ; next < lfSegSize; next++ {
		mb.push(msgWithSeq(0, next))
	}
	expect := int32(0)
	for ; expect < lfSegSize-4; expect++ {
		if m, ok := mb.tryPop(); !ok || m.MID != expect {
			t.Fatalf("warmup pop: got %v ok=%v, want %d", m, ok, expect)
		}
	}
	// Four messages are left in the first segment; the next pushes link a
	// second one and fill it.
	for i := 0; i <= lfSegSize; i++ {
		mb.push(msgWithSeq(0, next))
		next++
	}
	if got, want := mb.len(), int(next-expect); got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	for ; expect < next; expect++ {
		if m, ok := mb.tryPop(); !ok || m.MID != expect {
			t.Fatalf("pop: got %v ok=%v, want %d", m, ok, expect)
		}
	}
	if mb.len() != 0 {
		t.Fatalf("len = %d after drain", mb.len())
	}
}

func TestMailboxTryPop(t *testing.T) {
	mb := newLFMailbox()
	if _, ok := mb.tryPop(); ok {
		t.Error("tryPop on empty returned ok")
	}
	mb.push(msgWithSeq(0, 5))
	if m, ok := mb.tryPop(); !ok || m.MID != 5 {
		t.Errorf("tryPop = %v, %v", m, ok)
	}
	if mb.len() != 0 {
		t.Errorf("len = %d", mb.len())
	}
	if _, ok := mb.tryPop(); ok {
		t.Error("tryPop on drained mailbox returned ok")
	}
}

// TestMailboxPushAll: a batch lands behind earlier single pushes, an empty
// batch is accepted, and a closed mailbox rejects batches.
func TestMailboxPushAll(t *testing.T) {
	mb := newLFMailbox()
	mb.push(msgWithSeq(0, 0))
	batch := make([]*Message, 50)
	for i := range batch {
		batch[i] = msgWithSeq(0, int32(i+1))
	}
	if !mb.pushAll(batch) {
		t.Fatal("pushAll failed")
	}
	if !mb.pushAll(nil) {
		t.Fatal("empty pushAll failed")
	}
	if mb.len() != 51 {
		t.Fatalf("len = %d, want 51", mb.len())
	}
	for i := int32(0); i < 51; i++ {
		if m, ok := mb.tryPop(); !ok || m.MID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
	mb.close()
	if mb.pushAll(batch) {
		t.Error("pushAll after close succeeded")
	}
}

// TestMailboxCloseUnblocksPop: close wakes a consumer parked the way the
// scheduler parks — with a sibling-deque probe that finds nothing — and
// later pushes fail.
func TestMailboxCloseUnblocksPop(t *testing.T) {
	mb := newLFMailbox()
	ret := make(chan struct{})
	go func() {
		mb.park(func() bool { return false })
		close(ret)
	}()
	time.Sleep(20 * time.Millisecond)
	mb.close()
	select {
	case <-ret:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unpark the consumer")
	}
	if mb.push(&Message{}) {
		t.Error("push after close succeeded")
	}
}

// TestMailboxConcurrentProducers: producers race a consumer that parks
// whenever it runs dry, so every wake handshake is exercised under
// contention; nothing may be lost or slept through.
func TestMailboxConcurrentProducers(t *testing.T) {
	mb := newLFMailbox()
	const producers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mb.push(msgWithSeq(p, int32(i)))
				if i%50 == 0 {
					time.Sleep(50 * time.Microsecond) // let the consumer run dry and park
				}
			}
		}(p)
	}
	done := make(chan [producers]int)
	go func() {
		var counts [producers]int
		for i := 0; i < producers*each; i++ {
			m, ok := popWait(mb)
			if !ok {
				break
			}
			counts[m.Src]++
		}
		done <- counts
	}()
	wg.Wait()
	select {
	case counts := <-done:
		for p, n := range counts {
			if n != each {
				t.Errorf("producer %d delivered %d of %d", p, n, each)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer parked through a push (lost wakeup)")
	}
}
