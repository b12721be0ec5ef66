package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"cartcc/internal/netmodel"
)

// message is one in-flight point-to-point message. The payload is a typed
// slice held as its data pointer, capacity and element-type descriptor
// (payload.go) — either a gathered wire drawn from the world's pool or, on
// the zero-copy fast path, a subslice of the sender's user buffer — so
// carrying it boxes nothing; elems and bytes record its extent for
// matching diagnostics and cost accounting.
//
// Messages are pooled (newMessage/freeMessage): the sender draws one, and
// it goes back exactly once, at the single point it is consumed —
// mailbox.finish for a match-time scatter, Request.Wait for a deferred
// one, discard for a message dropped before delivery. gen advances on
// every recycle, so a reference taken under one generation (msgRef)
// fails loudly if it outlives the message instead of aliasing the next
// send that reuses the memory.
type message struct {
	ctx   int64
	epoch int64 // recovery epoch the sender's communicator belonged to
	src   int   // communicator rank of the sender within ctx
	tag   int
	// pay, pcap and ptype are the payload slice: data pointer, capacity
	// and element type; elems is its length.
	pay    unsafe.Pointer
	pcap   int
	ptype  *elemType
	elems  int
	bytes  int
	arrive netmodel.Time
	// srcWorld and sseq identify the physical send for duplicate
	// suppression: srcWorld is the sender's world rank and sseq its
	// per-sender monotonic send sequence number (0 for messages that
	// bypass the send path, e.g. hand-built test messages, which are
	// exempt from dedup).
	srcWorld int
	sseq     uint64
	// detach, when set, copies a payload aliasing the sender's user buffer
	// into a pooled wire (zero-copy sends). The mailbox invokes it before
	// queueing the message as unexpected, so the alias never outlives the
	// send call; it is cleared after the copy.
	detach func(*World, *message)
	// release, when set, returns a pooled wire payload to the world's pool.
	// It is invoked exactly once, at the single point the message is
	// consumed (mailbox.finish, or Wait for a deferred scatter), and
	// cleared before the call, so a payload can never be pooled twice.
	release func(*World, *message)
	// arrIdx is the message's position in mailbox.arrived while it sits
	// in the unexpected queue; taking it nils that slot, so the ordered
	// list never holds a message that has been consumed and recycled.
	arrIdx int
	// gen counts recycles; free marks a message sitting in the pool.
	gen  uint32
	free bool
}

// messagePool recycles message structs across every world. A sync.Pool
// rather than a per-rank list: a message is drawn by its sender and
// returned by its receiver — two goroutines, often on different Ps — and
// the pool's per-P caches make that hand-off lock-free.
var messagePool sync.Pool

// newMessage draws a zeroed message from the pool.
func newMessage() *message {
	if m, ok := messagePool.Get().(*message); ok {
		m.free = false
		return m
	}
	return new(message)
}

// freeMessage recycles a consumed message. The payload hooks must have
// run (or been dropped) already; recycling twice panics.
func freeMessage(m *message) {
	if m.free {
		panic("mpi: internal: message released twice")
	}
	*m = message{gen: m.gen + 1, free: true}
	messagePool.Put(m)
}

// msgRef is a generation-checked reference to a pooled message: get
// panics if the message has been recycled since the reference was taken.
type msgRef struct {
	m   *message
	gen uint32
}

func refOf(m *message) msgRef { return msgRef{m, m.gen} }

func (r msgRef) get() *message {
	if r.m == nil || r.m.free || r.m.gen != r.gen {
		panic("mpi: internal: stale message reference (message recycled while still held)")
	}
	return r.m
}

// Receive completion states (pendingRecv.state bits). A receive is
// claimed when a matcher, the fault layer or a cancel takes it out of the
// mailbox (under the mailbox lock); done once its outcome is published;
// parked while a waiter sleeps on its waker.
const (
	recvClaimed uint32 = 1 << iota
	recvDone
	recvParked
)

// pendingRecv is a posted receive. It lives inside its Request (memory
// the caller owns — a schedule executor keeps its requests in plan
// scratch), so posting allocates nothing. The outcome is published in the
// struct and signalled through the atomic state word: a matcher writes the
// status (or failure), then sets recvDone and, if a waiter parked, wakes
// it. srcWorld is the exact source's world rank (AnySource for wildcard
// receives); the fault layer and the deadlock monitor key on it.
type pendingRecv struct {
	ctx      int64
	epoch    int64
	src      int // may be AnySource
	tag      int // may be AnyTag
	srcWorld int // world rank of src; AnySource for wildcard
	// seq is the mailbox post sequence number, ordering exact receives
	// against wildcard receives for non-overtaking matching.
	seq uint64
	// consume scatters the matched payload into the receiver's buffer. It
	// normally runs at match time — in the sender's goroutine for a
	// pre-posted receive, in the receiver's for an unexpected message —
	// before the completion is published, so a zero-copy payload is read
	// exactly once, inside the send call that delivered it. With
	// deferConsume set it runs at Wait time instead, in the receiver's
	// goroutine: schedule executors request this for phases whose
	// receive-target extents overlap their send-source extents, where a
	// match-time scatter could race the receiver's own gathers.
	consume      RecvScatter
	deferConsume bool
	// state holds the recvClaimed/recvDone/recvParked bits. The deadlock
	// monitor reads recvClaimed to tell "never matched" apart from
	// "matched but the receiver hasn't been scheduled yet".
	state atomic.Uint32
	// waker is the parked waiter's wake channel, written by the waiter
	// before it publishes recvParked and read by the completer after.
	waker *waker
	// The outcome, written before recvDone: the matched envelope and
	// extent, the virtual arrival time, the consume result (match-time
	// scatters), or fail for a poisoned receive. held is the message a
	// deferred scatter still has to unpack at Wait.
	st         Status
	nbytes     int
	arrive     netmodel.Time
	consumeErr error
	fail       error
	held       msgRef
	// postNs is the flight-recorder clock reading at post time (0 when
	// recording is off); the completion hook turns it into the receive's
	// post→completion latency.
	postNs int64
	// notify, when non-nil, is posted notifyIdx exactly once, immediately
	// before the completion is published — the completion sink of a
	// WaitSet (Waitsome). It is attached under the mailbox lock
	// (attachNotify) and only while the receive is still unclaimed, so the
	// completer's read is ordered after the attach by the lock; the
	// post-before-done order guarantees the notification is queued by the
	// time any Wait on the receive returns. The sink is unbounded, so the
	// post never blocks.
	notify    *notifySink
	notifyIdx int
	// notifyGate, when non-nil, coalesces a group of completions into one
	// notification: each member's completion decrements the gate and only
	// the one that reaches zero posts notifyIdx. Attached with the sink
	// (attachNotifyGated); cancellation decrements like a completion.
	notifyGate *atomic.Int32
	// gen counts the re-posts of the request this receive is embedded in
	// (Request.reuseRecv); a WaitSet checks it when a notification comes back,
	// so a request re-posted while still attached fails loudly.
	gen uint32
}

// claimed reports whether the receive has been taken out of the mailbox
// (matched, poisoned or cancelled).
func (r *pendingRecv) claimed() bool { return r.state.Load()&recvClaimed != 0 }

// done reports whether the receive's outcome is published.
func (r *pendingRecv) done() bool { return r.state.Load()&recvDone != 0 }

// complete posts to the attached WaitSet sink, if any, then publishes the
// outcome and wakes a parked waiter. Every delivery path funnels through
// here so a completion waiter never misses a match.
func (r *pendingRecv) complete() {
	if n := r.notify; n != nil {
		if g := r.notifyGate; g == nil || g.Add(-1) == 0 {
			n.post(r.notifyIdx)
		}
	}
	if r.state.Or(recvDone)&recvParked != 0 {
		r.waker.ch <- struct{}{}
	}
}

// poison completes a claimed receive with err instead of a message: the
// fault layer's way to fail a receive that can no longer be satisfied.
func (r *pendingRecv) poison(err error) {
	r.fail = err
	r.complete()
}

// waker is a parked waiter's wake channel (capacity 1). Wakers are pooled:
// a waiter draws one only when it must block, and returns it drained.
type waker struct{ ch chan struct{} }

var wakers sync.Pool

// park arms a waker on the receive and returns it, or nil when the
// receive completed first (nothing to wait for). A non-nil waker receives
// exactly one signal, from complete; the caller must either consume it
// and unpark, or — when a cancel has removed the receive, so no complete
// can follow — unpark without consuming.
func (r *pendingRecv) park() *waker {
	wk, _ := wakers.Get().(*waker)
	if wk == nil {
		wk = &waker{ch: make(chan struct{}, 1)}
	}
	r.waker = wk
	for {
		s := r.state.Load()
		if s&recvDone != 0 {
			r.waker = nil
			wakers.Put(wk)
			return nil
		}
		if r.state.CompareAndSwap(s, s|recvParked) {
			return wk
		}
	}
}

// unpark returns a waker after its wait ended.
func (r *pendingRecv) unpark(wk *waker) {
	r.waker = nil
	wakers.Put(wk)
}

// awaitDone blocks until the outcome of a claimed receive is published —
// the handoff is imminent (straight-line code in the completer), so there
// is no watchdog and no abort case.
func (r *pendingRecv) awaitDone() {
	if wk := r.park(); wk != nil {
		<-wk.ch
		r.unpark(wk)
	}
}

// wildcard reports whether the receive needs envelope-order scanning (any
// wildcard in source or tag) rather than exact-key lookup.
func (r *pendingRecv) wildcard() bool { return r.src == AnySource || r.tag == AnyTag }

// matches reports whether message m satisfies receive r. MPI matching:
// context and recovery epoch must be equal; source and tag match exactly
// or via wildcard. Carrying the epoch in the match tuple is what makes a
// resumed collective immune to pre-failure stragglers: a message stamped
// with an old epoch can never satisfy a receive posted after recovery.
func (r *pendingRecv) matches(m *message) bool {
	if r.ctx != m.ctx || r.epoch != m.epoch {
		return false
	}
	if r.src != AnySource && r.src != m.src {
		return false
	}
	if r.tag != AnyTag && r.tag != m.tag {
		return false
	}
	return true
}

// mkey is the exact-match index key: MPI matching is per (context, epoch,
// source, tag).
type mkey struct {
	ctx      int64
	epoch    int64
	src, tag int
}

// fifo is a reusable FIFO queue: popping advances a head index instead of
// reslicing, so a drained queue keeps its whole backing array for the next
// round of pushes.
type fifo[E comparable] struct {
	buf  []E
	head int
}

func (q *fifo[E]) len() int { return len(q.buf) - q.head }

func (q *fifo[E]) front() E { return q.buf[q.head] }

func (q *fifo[E]) push(e E) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

func (q *fifo[E]) pop() E {
	var zero E
	e := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// remove deletes e from the queue, preserving order, and reports whether
// it was there.
func (q *fifo[E]) remove(e E) bool {
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i] == e {
			var zero E
			copy(q.buf[i:], q.buf[i+1:])
			q.buf[len(q.buf)-1] = zero
			q.buf = q.buf[:len(q.buf)-1]
			if q.head == len(q.buf) {
				q.buf, q.head = q.buf[:0], 0
			}
			return true
		}
	}
	return false
}

// keyedQueues is a map of per-key FIFO queues whose emptied queues are
// recycled: a key's queue leaves the map when it drains (so the key set
// stays bounded by what is in flight) and its backing array serves the
// next key that appears, so steady-state traffic allocates no queues.
type keyedQueues[E comparable] struct {
	m    map[mkey]*fifo[E]
	free []*fifo[E]
}

// get returns k's queue, or nil.
func (k *keyedQueues[E]) get(key mkey) *fifo[E] { return k.m[key] }

// push appends e to k's queue, creating (or recycling) the queue.
func (k *keyedQueues[E]) push(key mkey, e E) {
	q := k.m[key]
	if q == nil {
		if n := len(k.free); n > 0 {
			q = k.free[n-1]
			k.free = k.free[:n-1]
		} else {
			q = new(fifo[E])
		}
		if k.m == nil {
			k.m = make(map[mkey]*fifo[E])
		}
		k.m[key] = q
	}
	q.push(e)
}

// retire drops k's queue from the map once it is empty.
func (k *keyedQueues[E]) retire(key mkey, q *fifo[E]) {
	if q.len() == 0 {
		delete(k.m, key)
		k.free = append(k.free, q)
	}
}

// mailbox holds a rank's unexpected-message queue and pending receives.
//
// Exact (no-wildcard) receives and unexpected messages are indexed by
// (ctx, epoch, src, tag) in per-key FIFO queues for O(1) matching — the
// hot path of every schedule executor. The ordered linear structures are
// kept only for what genuinely needs envelope order: wildcard receives
// (wild), wildcard probes and diagnostics (arrived). Non-overtaking per
// (source, tag, context) is preserved because each per-key queue is FIFO,
// each sender delivers from a single goroutine, and a post sequence
// number arbitrates between an exact receive and an earlier-posted
// wildcard.
type mailbox struct {
	mu sync.Mutex
	w  *World
	// met is the owning rank's metric bundle (nil when metrics are off):
	// the mailbox attributes detach-to-pool events and the unexpected-queue
	// high-water mark to the receiving rank.
	met *mpiMetrics

	seq uint64 // receive post sequence

	// arrived is every unexpected message in arrival order (wildcard scans
	// and diagnostics); arrivedIdx indexes the same messages per key.
	// Taking a message nils its arrived slot (message.arrIdx); the nil
	// slots are compacted out lazily.
	arrived      []*message
	arrivedTaken int
	arrivedIdx   keyedQueues[*message]

	// wild holds wildcard receives in post order; exact holds per-key FIFO
	// queues of fully-specified receives.
	wild  []*pendingRecv
	exact keyedQueues[*pendingRecv]

	// epochFloor is the oldest recovery epoch this rank still accepts.
	// drainBelowEpoch raises it after a shrink; deliver discards older
	// messages on arrival, which closes the race with delayed senders that
	// were already past their fault checks when the drain ran. The
	// fault-tolerance shadow plane (ftCtxBit contexts) is exempt: recovery
	// protocols deliberately run on old-epoch communicators (ULFM's Agree
	// and Shrink must work on a broken world), and an abandoned generation
	// retries them on the original communicator after the floor has risen.
	epochFloor int64

	// lastSeq records, per sender world rank, the highest send sequence
	// number delivered so far. Each sender delivers in send-sequence order
	// (its posters serialize on rankState.sendMu), so any message whose
	// sseq does not advance the counter is a duplicate and is dropped (its
	// pooled wire released exactly once).
	lastSeq map[int]uint64
}

// probeScanned counts arrived-list entries examined by wildcard probes and
// wildcard matching (a test hook: the Iprobe regression test asserts the
// exact-match path examines none of a deep unexpected queue).
var probeScanned atomic.Int64

// finish completes a match outside the mailbox lock: the receiver's
// consume callback scatters the payload into the user buffer, a pooled
// wire is released, the message is recycled, and the outcome is
// published. Running consume here — before the completion, in whichever
// goroutine completed the match — is what lets a zero-copy send pass a
// subslice of the user buffer: by the time the posting call returns, the
// payload has been read exactly once and the alias is dead.
func (b *mailbox) finish(r *pendingRecv, m *message) {
	r.st = Status{Source: m.src, Tag: m.tag, Count: m.elems}
	r.nbytes, r.arrive = m.bytes, m.arrive
	if r.deferConsume {
		// The receiver scatters at Wait time. A zero-copy payload must not
		// outlive this send call, so detach it into a pooled wire now (in
		// the sender's goroutine); the wire travels with the message and
		// is released after the deferred scatter.
		if d := m.detach; d != nil {
			m.detach = nil
			d(b.w, m)
			if b.met != nil {
				b.met.recvDetached.Inc()
			}
		}
		r.held = refOf(m)
		r.complete()
		return
	}
	if r.consume != nil {
		r.consumeErr = r.consume.scatter(m)
	}
	b.consumed(m)
	r.complete()
}

// consumed releases a consumed (or discarded) message: the pooled wire
// goes back exactly once — the hook is cleared before it runs — a
// zero-copy alias is simply dropped, and the message is recycled.
func (b *mailbox) consumed(m *message) {
	m.detach = nil
	if rel := m.release; rel != nil {
		m.release = nil
		rel(b.w, m)
	}
	freeMessage(m)
}

// attachNotify attaches a completion sink to a still-unclaimed pending
// receive and reports whether it attached: false means a message or
// poison has already been matched (its completion may still be in flight)
// and the caller must treat the receive as already complete. The claim
// check and the sink store happen under the mailbox lock, the same lock
// every matcher holds when it claims, so a successful attach is visible to
// whichever goroutine later completes the receive.
func (b *mailbox) attachNotify(p *pendingRecv, sink *notifySink, idx int) bool {
	return b.attachNotifyGated(p, sink, idx, nil)
}

// attachNotifyGated is attachNotify with a completion-coalescing gate:
// the receive's completion (or cancellation) decrements gate and posts
// idx only on reaching zero. A false return means the receive already
// completed — the caller owns the decrement for it.
func (b *mailbox) attachNotifyGated(p *pendingRecv, sink *notifySink, idx int, gate *atomic.Int32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.claimed() {
		return false
	}
	p.notify = sink
	p.notifyIdx = idx
	p.notifyGate = gate
	return true
}

// undefer clears a pending receive's deferConsume flag and reports whether
// it did: false means a message (or poison) has already been matched — its
// finish may be reading the flag right now — and the receive stays
// deferred, to be scattered at Wait. The claim check and the flag write
// happen under the mailbox lock, the same lock every matcher holds when it
// claims, so a successful undefer is visible to whichever matcher later
// completes the receive. Schedule executors use this to re-enable the
// match-time single-copy scatter on a pre-posted receive whose buffer
// hazards have cleared since it was posted.
func (b *mailbox) undefer(p *pendingRecv) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.claimed() {
		return false
	}
	p.deferConsume = false
	return true
}

// takeRecvLocked removes and returns the receive that message m must match
// under MPI ordering: the earliest-posted matching receive, found as the
// head of m's exact-key queue or the first matching wildcard, whichever
// was posted first.
func (b *mailbox) takeRecvLocked(m *message) *pendingRecv {
	k := mkey{m.ctx, m.epoch, m.src, m.tag}
	q := b.exact.get(k)
	var exact *pendingRecv
	if q != nil && q.len() > 0 {
		exact = q.front()
	}
	var wild *pendingRecv
	wi := -1
	for i, r := range b.wild {
		if r.matches(m) {
			wild, wi = r, i
			break
		}
	}
	switch {
	case exact != nil && (wild == nil || exact.seq < wild.seq):
		q.pop()
		b.exact.retire(k, q)
		exact.state.Or(recvClaimed)
		return exact
	case wild != nil:
		b.wild = append(b.wild[:wi], b.wild[wi+1:]...)
		wild.state.Or(recvClaimed)
		return wild
	}
	return nil
}

// discard drops a message without delivering it — a stale-epoch arrival,
// a suppressed duplicate, or a send that failed before delivery.
func (b *mailbox) discard(m *message) { b.consumed(m) }

// deliver hands a message to the mailbox: the earliest matching pending
// receive gets it, otherwise it queues as unexpected. A zero-copy payload
// that finds no waiting receive is detached — copied into a pooled wire,
// outside the lock — before queueing, so the sender's buffer is free for
// reuse the moment the send call returns either way.
//
// Two guards run first: messages below the epoch floor (pre-recovery
// stragglers racing the drain) and messages whose send sequence number
// does not advance the per-sender counter (injected duplicates) are
// discarded, returning any pooled wire exactly once.
func (b *mailbox) deliver(m *message) {
	b.mu.Lock()
	if m.epoch < b.epochFloor && m.ctx&ftCtxBit == 0 {
		b.mu.Unlock()
		b.discard(m)
		if b.met != nil {
			b.met.staleDrained.Inc()
		}
		return
	}
	if m.sseq > 0 {
		if last, ok := b.lastSeq[m.srcWorld]; ok && m.sseq <= last {
			b.mu.Unlock()
			b.discard(m)
			if b.met != nil {
				b.met.dupDropped.Inc()
			}
			return
		}
		if b.lastSeq == nil {
			b.lastSeq = make(map[int]uint64)
		}
		b.lastSeq[m.srcWorld] = m.sseq
	}
	for {
		if r := b.takeRecvLocked(m); r != nil {
			b.mu.Unlock()
			b.finish(r, m)
			return
		}
		if m.detach == nil {
			break
		}
		d := m.detach
		m.detach = nil
		b.mu.Unlock()
		d(b.w, m)
		if b.met != nil {
			b.met.recvDetached.Inc()
		}
		// Re-check under the lock: a receive posted during the copy found
		// no message in arrived and pended — it must not be missed. Only
		// this sender can append messages with this key, so per-key FIFO
		// order is unaffected by the unlocked window.
		b.mu.Lock()
	}
	b.arrivedIdx.push(mkey{m.ctx, m.epoch, m.src, m.tag}, m)
	m.arrIdx = len(b.arrived)
	b.arrived = append(b.arrived, m)
	if b.met != nil {
		b.met.unexpectedHWM.SetMax(int64(len(b.arrived) - b.arrivedTaken))
	}
	b.mu.Unlock()
}

// dropArrivedLocked nils a taken message's slot in the ordered arrived
// list; the slots are compacted out lazily.
func (b *mailbox) dropArrivedLocked(m *message) {
	b.arrived[m.arrIdx] = nil
	b.arrivedTaken++
}

// takeArrivedLocked removes and returns the unexpected message receive r
// must match: the FIFO head of r's key queue for exact receives (O(1)),
// the first matching entry in arrival order for wildcards.
func (b *mailbox) takeArrivedLocked(r *pendingRecv) *message {
	if !r.wildcard() {
		k := mkey{r.ctx, r.epoch, r.src, r.tag}
		q := b.arrivedIdx.get(k)
		if q == nil || q.len() == 0 {
			return nil
		}
		m := q.pop()
		b.arrivedIdx.retire(k, q)
		b.dropArrivedLocked(m)
		b.compactArrivedLocked()
		return m
	}
	for _, m := range b.arrived {
		if m == nil {
			continue
		}
		probeScanned.Add(1)
		if !r.matches(m) {
			continue
		}
		k := mkey{m.ctx, m.epoch, m.src, m.tag}
		q := b.arrivedIdx.get(k)
		q.remove(m)
		b.arrivedIdx.retire(k, q)
		b.dropArrivedLocked(m)
		b.compactArrivedLocked()
		return m
	}
	return nil
}

// compactArrivedLocked drops taken (nil) entries from the ordered arrived
// list once they are the majority, keeping wildcard scans and diagnostics
// amortized O(live entries).
func (b *mailbox) compactArrivedLocked() {
	if n := len(b.arrived); b.arrivedTaken == n {
		// Everything taken: reset in place (the common steady state).
		clear(b.arrived)
		b.arrived, b.arrivedTaken = b.arrived[:0], 0
		return
	}
	if b.arrivedTaken < 32 || b.arrivedTaken*2 < len(b.arrived) {
		return
	}
	kept := b.arrived[:0]
	for _, m := range b.arrived {
		if m != nil {
			m.arrIdx = len(kept)
			kept = append(kept, m)
		}
	}
	clear(b.arrived[len(kept):])
	b.arrived = kept
	b.arrivedTaken = 0
}

// post registers a receive: the earliest matching unexpected message
// satisfies it immediately, otherwise the receive pends — indexed by key
// when fully specified, in the ordered wildcard list otherwise.
func (b *mailbox) post(r *pendingRecv) {
	b.mu.Lock()
	if m := b.takeArrivedLocked(r); m != nil {
		r.state.Or(recvClaimed)
		b.mu.Unlock()
		b.finish(r, m)
		return
	}
	r.seq = b.seq
	b.seq++
	if r.wildcard() {
		b.wild = append(b.wild, r)
	} else {
		b.exact.push(mkey{r.ctx, r.epoch, r.src, r.tag}, r)
	}
	b.mu.Unlock()
}

// probe reports whether a matching message has arrived, without removing
// it, returning its envelope. Mirrors MPI_Iprobe. A fully-specified probe
// is an O(1) index lookup regardless of the unexpected-queue depth; only
// wildcard probes scan.
func (b *mailbox) probe(ctx, epoch int64, src, tag int) (found bool, msgSrc, msgTag, elems int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if src != AnySource && tag != AnyTag {
		if q := b.arrivedIdx.get(mkey{ctx, epoch, src, tag}); q != nil && q.len() > 0 {
			m := q.front()
			return true, m.src, m.tag, m.elems
		}
		return false, 0, 0, 0
	}
	r := pendingRecv{ctx: ctx, epoch: epoch, src: src, tag: tag}
	for _, m := range b.arrived {
		if m == nil {
			continue
		}
		probeScanned.Add(1)
		if r.matches(m) {
			return true, m.src, m.tag, m.elems
		}
	}
	return false, 0, 0, 0
}

// poisonMatching fails every pending receive for which cond returns a
// non-nil error: the receive is removed and completed with the error, so
// its Wait returns it instead of blocking forever. Used by the fault layer
// when a rank dies or a context is revoked. A poisoned receive carries no
// message, so it can never return (or double-return) a pooled buffer.
func (b *mailbox) poisonMatching(cond func(*pendingRecv) error) {
	b.mu.Lock()
	var hit []*pendingRecv
	var errs []error
	condemn := func(r *pendingRecv) bool {
		err := cond(r)
		if err == nil {
			return false
		}
		r.state.Or(recvClaimed)
		hit = append(hit, r)
		errs = append(errs, err)
		return true
	}
	kept := b.wild[:0]
	for _, r := range b.wild {
		if !condemn(r) {
			kept = append(kept, r)
		}
	}
	clear(b.wild[len(kept):])
	b.wild = kept
	for k, q := range b.exact.m {
		keep := q.buf[:q.head]
		for _, r := range q.buf[q.head:] {
			if !condemn(r) {
				keep = append(keep, r)
			}
		}
		clear(q.buf[len(keep):])
		q.buf = keep
		if q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		b.exact.retire(k, q)
	}
	b.mu.Unlock()
	for i, r := range hit {
		r.poison(errs[i])
	}
}

// drainBelowEpoch raises the mailbox's epoch floor and discards every
// unexpected message from an older epoch: pre-failure stragglers that
// arrived before recovery completed. Each discarded message returns its
// pooled wire exactly once through the same release hook a normal
// consume would have used. Pending receives from old epochs are poisoned
// with ErrCancelled so no request blocks on traffic that can no longer
// arrive. Fault-tolerance shadow contexts are exempt from both sweeps —
// consensus retries legitimately reuse the old epoch (see epochFloor).
// Returns the number of messages drained.
func (b *mailbox) drainBelowEpoch(epoch int64) int {
	b.mu.Lock()
	if epoch <= b.epochFloor {
		b.mu.Unlock()
		return 0
	}
	b.epochFloor = epoch
	var stale []*message
	for _, m := range b.arrived {
		if m == nil || m.epoch >= epoch || m.ctx&ftCtxBit != 0 {
			continue
		}
		k := mkey{m.ctx, m.epoch, m.src, m.tag}
		q := b.arrivedIdx.get(k)
		q.remove(m)
		b.arrivedIdx.retire(k, q)
		b.dropArrivedLocked(m)
		stale = append(stale, m)
	}
	b.compactArrivedLocked()
	b.mu.Unlock()
	for _, m := range stale {
		b.discard(m)
	}
	if n := len(stale); n > 0 && b.met != nil {
		b.met.staleDrained.Add(int64(n))
	}
	// Defensive: a receive posted under the old epoch can never match
	// again; fail it now instead of waiting for the watchdog.
	b.poisonMatching(func(r *pendingRecv) error {
		if r.epoch < epoch && r.ctx&ftCtxBit == 0 {
			return fmt.Errorf("stale-epoch receive drained during recovery: %w", ErrCancelled)
		}
		return nil
	})
	return len(stale)
}

// cancel removes a still-unmatched pending receive and reports whether it
// was removed; false means a message (or poison) has already been matched
// and the receive must still be waited on. A successful cancel is a
// completion: the receive is marked claimed — so a later attachNotify
// refuses and treats it as already complete — and notify/idx carry any
// attached WaitSet slot the CALLER must post (n.post(idx)), so a Waitsome
// over a set whose receives were all cancelled returns instead of blocking
// until the watchdog. The post is the caller's job, not cancel's, so the
// caller can finish the request (Request.Cancel records ErrCancelled)
// before the notification can wake a Waitsome in another goroutine — the
// sink post is what publishes those writes to the set's owner.
func (b *mailbox) cancel(p *pendingRecv) (removed bool, notify *notifySink, idx int) {
	b.mu.Lock()
	removed = b.removeLocked(p)
	if removed {
		p.state.Or(recvClaimed)
		notify, idx = p.notify, p.notifyIdx
		if g := p.notifyGate; notify != nil && g != nil && g.Add(-1) != 0 {
			// Gated completion that didn't close the group: no post due.
			notify = nil
		}
	}
	b.mu.Unlock()
	return removed, notify, idx
}

// pendingPosted counts posted-and-unmatched receives still registered in
// the mailbox, and unexpected messages still queued — the state an
// abandoned collective would leak. Test/diagnostic introspection.
func (b *mailbox) pendingPosted() (recvs, unexpected int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recvs = len(b.wild)
	for _, q := range b.exact.m {
		recvs += q.len()
	}
	return recvs, len(b.arrived) - b.arrivedTaken
}

// removeLocked unlinks a pending receive from the wildcard list or its
// exact-key queue, reporting whether it was still there.
func (b *mailbox) removeLocked(p *pendingRecv) bool {
	if p.wildcard() {
		for i, r := range b.wild {
			if r == p {
				b.wild = append(b.wild[:i], b.wild[i+1:]...)
				return true
			}
		}
		return false
	}
	k := mkey{p.ctx, p.epoch, p.src, p.tag}
	q := b.exact.get(k)
	if q == nil || !q.remove(p) {
		return false
	}
	b.exact.retire(k, q)
	return true
}

// snapshotArrived renders the envelopes of the unexpected-message queue
// for diagnostic reports.
func (b *mailbox) snapshotArrived() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.arrived)-b.arrivedTaken)
	for _, m := range b.arrived {
		if m == nil {
			continue
		}
		out = append(out, fmt.Sprintf("[src=%d tag=%d ctx=%d elems=%d]", m.src, m.tag, m.ctx, m.elems))
	}
	return out
}
