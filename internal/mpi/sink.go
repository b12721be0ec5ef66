package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// CompletionSink is a thread-safe completion queue over receives: the
// multi-poster sibling of WaitSet for progress engines whose work is
// committed inline on caller goroutines. Where a WaitSet is
// single-goroutine (one owner calls Add/Waitsome), a CompletionSink
// accepts Add from any goroutine that owns the request being added, and
// carries caller-chosen tokens directly — no position indirection, no
// per-receive bookkeeping — so attaching is one mailbox operation and the
// sink itself never grows with the number of collectives driven through
// it.
//
// Tokens must be non-negative. A receive added to the sink posts its token
// the moment a message or poison is matched (before the completion is published);
// a request that cannot notify (send, finished, already matched) posts
// immediately. Cancellation counts as completion. Consumers drain with
// TryDrain and park with Park/ParkOr; the wake channel is a level trigger
// (capacity 1), so a consumer that drains the queue may see one spurious
// wake afterwards and must re-check.
//
// Deadlock policy belongs to the consumer: Park reports watchdog timeouts
// instead of failing the world, so an engine that made progress since the
// last timeout can re-arm, and only a genuinely stalled one declares
// Deadlock.
type CompletionSink struct {
	c     *Comm
	sink  *notifySink
	timer *time.Timer
}

// parkTimers pools the per-call timers of ParkOr and ParkFor: waiters
// park a few times per operation, and with Go 1.23+ timer semantics a
// stopped timer can be Reset and reused without draining, so a pooled
// timer makes a park allocation-free.
var parkTimers sync.Pool

func getParkTimer(d time.Duration) *time.Timer {
	if t, ok := parkTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putParkTimer(t *time.Timer) {
	t.Stop()
	parkTimers.Put(t)
}

// NewCompletionSink creates a sink; capacity pre-sizes the completion
// queue for the expected number of in-flight receives (a hint — the queue
// grows as needed).
func NewCompletionSink(c *Comm, capacity int) *CompletionSink {
	if capacity < 1 {
		capacity = 1
	}
	return &CompletionSink{c: c, sink: newNotifySink(capacity)}
}

// Post injects a token from any goroutine: the next drain returns it.
// Progress engines use it to wake a parked driver when new work is
// committed or a cancel is requested.
func (s *CompletionSink) Post(token int) {
	if token < 0 {
		panic(fmt.Sprintf("mpi: CompletionSink token %d is negative", token))
	}
	s.sink.post(token)
}

// Wake sets the level-triggered wake slot without queueing a token. A
// parker that consumed a wake but could not drain the queue (the driver
// lock was busy) hands the wake back with this, preserving the invariant
// that a non-empty queue always has a wake pending.
func (s *CompletionSink) Wake() {
	select {
	case s.sink.wake <- struct{}{}:
	default:
	}
}

// Add registers a request's completion under the given token, like
// WaitSet.Add: already-complete requests (nil, finished, sends, receives
// whose match already happened) post the token immediately; aggregates
// attach every unfinished child receive under the same token, so the
// token is posted on each child completion and the consumer re-tests the
// aggregate. Safe to call from the goroutine that posted the request,
// concurrently with matchers and with other goroutines adding their own
// requests.
func (s *CompletionSink) Add(r *Request, token int) {
	if token < 0 {
		panic(fmt.Sprintf("mpi: CompletionSink token %d is negative", token))
	}
	if r == nil || r.finished {
		s.sink.post(token)
		return
	}
	switch r.kind {
	case reqRecv:
		if !r.c.rs.box.attachNotify(&r.recv, s.sink, token) {
			s.sink.post(token)
		}
	case reqAggregate:
		attached := false
		var walk func(req *Request)
		walk = func(req *Request) {
			if req == nil || req.finished {
				return
			}
			switch req.kind {
			case reqRecv:
				if req.c.rs.box.attachNotify(&req.recv, s.sink, token) {
					attached = true
				}
			case reqAggregate:
				for _, ch := range req.children {
					walk(ch)
				}
			}
		}
		walk(r)
		if !attached {
			s.sink.post(token)
		}
	default:
		// Sends complete at post time.
		s.sink.post(token)
	}
}

// AddGated registers a request's completion under a shared countdown
// gate: every constituent receive completion (cancellation included)
// decrements the gate, and only the completion that brings it to zero
// posts the token — one notification for a whole group of receives whose
// individual completions carry no scheduling information (the progress
// engine's leaf rounds). Constituents that already completed are
// decremented here. The caller seeds the gate with a positive bias before
// the first AddGated and drops the bias after the last, so the gate
// cannot reach zero while the group is still being attached; sends and
// nil/finished requests contribute nothing.
func (s *CompletionSink) AddGated(r *Request, token int, gate *atomic.Int32) {
	if token < 0 {
		panic(fmt.Sprintf("mpi: CompletionSink token %d is negative", token))
	}
	if r == nil || r.finished {
		return
	}
	switch r.kind {
	case reqRecv:
		gate.Add(1)
		if !r.c.rs.box.attachNotifyGated(&r.recv, s.sink, token, gate) {
			if gate.Add(-1) == 0 {
				s.sink.post(token)
			}
		}
	case reqAggregate:
		for _, ch := range r.children {
			s.AddGated(ch, token, gate)
		}
	}
}

// TryDrain appends every queued token to buf without blocking and returns
// the extended slice. One consumer at a time (the holder of the engine's
// drive lock).
func (s *CompletionSink) TryDrain(buf []int) []int {
	s.sink.mu.Lock()
	buf = append(buf, s.sink.queue...)
	s.sink.queue = s.sink.queue[:0]
	s.sink.pend.Store(0)
	s.sink.mu.Unlock()
	return buf
}

// Pending peeks the queue length without the lock — a poller's cheap
// emptiness probe between yields. A raced post may be missed for one
// probe; the wake level still guards against losing it across a park.
func (s *CompletionSink) Pending() int {
	return int(s.sink.pend.Load())
}

func (s *CompletionSink) armTimeout() <-chan time.Time {
	d := s.c.w.timeout
	if d <= 0 {
		return nil
	}
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	return s.timer.C
}

func (s *CompletionSink) disarmTimeout() {
	if s.timer != nil {
		s.timer.Stop()
	}
}

// Park blocks until a token is posted, the run aborts, or — when arm is
// set — the fallback watchdog fires. It consumes the wake without
// draining the queue: the caller drives afterwards (or hands the wake
// back with Wake). arm selects the watchdog and the blocked-wait metric:
// pass true when receives are in flight, false for an idle park awaiting
// the next commit (idle is not deadlock). A timedOut return is a report,
// not a failure — the caller decides between re-arming (progress was
// made elsewhere) and declaring Deadlock. May return spuriously; the
// caller's next drain finding nothing is the re-check.
func (s *CompletionSink) Park(arm bool) (timedOut bool, err error) {
	w := s.c.w
	if met := s.c.rs.met; met != nil && arm {
		// As in Waitsome: count and time only parks that wait on receives.
		met.waitBlocks.Inc()
		t0 := time.Now()
		defer func() { met.waitBlockedNs.Add(time.Since(t0).Nanoseconds()) }()
	}
	var timeoutCh <-chan time.Time
	if arm {
		timeoutCh = s.armTimeout()
		defer s.disarmTimeout()
	}
	select {
	case <-s.sink.wake:
		return false, nil
	case <-w.abort:
		if cause := w.abortCause(); cause != nil {
			return false, fmt.Errorf("mpi: rank %d: %w in progress engine: %w", s.c.rank, ErrAborted, cause)
		}
		return false, fmt.Errorf("mpi: rank %d: %w in progress engine", s.c.rank, ErrAborted)
	case <-timeoutCh:
		return true, nil
	}
}

// ParkFor blocks until a token is posted, the run aborts, or d elapses —
// the idle-linger park of a resident driver with nothing in flight,
// staying alive briefly for the next commit before exiting. No watchdog
// semantics and no blocked-wait metric (idle is not a communication
// wait); the fixed-duration timer is the sink's own, so it does not
// disturb an armed watchdog.
func (s *CompletionSink) ParkFor(d time.Duration) (timedOut bool, err error) {
	w := s.c.w
	t := getParkTimer(d)
	defer putParkTimer(t)
	select {
	case <-s.sink.wake:
		return false, nil
	case <-w.abort:
		if cause := w.abortCause(); cause != nil {
			return false, fmt.Errorf("mpi: rank %d: %w in progress engine: %w", s.c.rank, ErrAborted, cause)
		}
		return false, fmt.Errorf("mpi: rank %d: %w in progress engine", s.c.rank, ErrAborted)
	case <-t.C:
		return true, nil
	}
}

// AcquireParkTimer hands a waiter its watchdog timer for a whole sequence
// of ParkOr calls: acquired once per Wait, reused across its parks, so a
// park costs no timer start/stop. Returns nils when the world runs
// without a timeout. The timer runs across parks — a fire after the
// caller's deadlock check found progress is re-armed with
// RearmParkTimer, so "no progress for a full timeout" is still what
// trips the watchdog. Concurrent waiters each acquire their own.
func (s *CompletionSink) AcquireParkTimer() (*time.Timer, <-chan time.Time) {
	if d := s.c.w.timeout; d > 0 {
		t := getParkTimer(d)
		return t, t.C
	}
	return nil, nil
}

// ReleaseParkTimer returns a waiter's watchdog timer to the pool.
func (s *CompletionSink) ReleaseParkTimer(t *time.Timer) {
	if t != nil {
		putParkTimer(t)
	}
}

// RearmParkTimer restarts a fired watchdog timer after the caller
// handled a timedOut park (its channel is drained — Reset is safe).
func (s *CompletionSink) RearmParkTimer(t *time.Timer) {
	if t != nil {
		t.Reset(s.c.w.timeout)
	}
}

// ParkOr is the waiter-side park: block until a token is posted (woke),
// done is closed, the run aborts, or the caller's watchdog timer (from
// AcquireParkTimer; nil for none) fires. A woke return consumed the wake
// — the caller must either drain the queue or hand the wake back with
// Wake. A timedOut return consumed the timer fire — re-arm with
// RearmParkTimer before parking again.
func (s *CompletionSink) ParkOr(done <-chan struct{}, timeoutCh <-chan time.Time) (woke, timedOut bool, err error) {
	w := s.c.w
	if met := s.c.rs.met; met != nil {
		met.waitBlocks.Inc()
		t0 := time.Now()
		defer func() { met.waitBlockedNs.Add(time.Since(t0).Nanoseconds()) }()
	}
	select {
	case <-s.sink.wake:
		return true, false, nil
	case <-done:
		return false, false, nil
	case <-w.abort:
		if cause := w.abortCause(); cause != nil {
			return false, false, fmt.Errorf("mpi: rank %d: %w in progress engine: %w", s.c.rank, ErrAborted, cause)
		}
		return false, false, fmt.Errorf("mpi: rank %d: %w in progress engine", s.c.rank, ErrAborted)
	case <-timeoutCh:
		return false, true, nil
	}
}

// Deadlock records the watchdog failure for an engine that saw no
// progress across a full timeout with n execution(s) in flight, failing
// the run like a blocked Waitsome would, and returns the error.
func (s *CompletionSink) Deadlock(n int) error {
	err := fmt.Errorf("mpi: rank %d: deadlock suspected: progress engine over %d execution(s) blocked for %v",
		s.c.rank, n, s.c.w.timeout)
	s.c.w.fail(err)
	return err
}
