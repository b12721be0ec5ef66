package mpi

import (
	"errors"
	"fmt"
	"time"

	"cartcc/internal/netmodel"
)

// This file implements the runtime's fault layer: deterministic fault
// injection (rank crashes, stragglers, message delays) and the typed
// errors through which failures propagate ULFM-style — an operation that
// involves a failed rank errors out instead of hanging its peer.

// ErrAborted marks errors caused by the run being torn down after another
// rank's failure (the secondary, cascade errors). Match with errors.Is.
var ErrAborted = errors.New("run aborted")

// ErrRevoked marks errors on a communicator that has been revoked with
// Comm.Revoke. Match with errors.Is.
var ErrRevoked = errors.New("communicator revoked")

// ErrCancelled marks a receive request that was cancelled with
// Request.Cancel before a message matched it.
var ErrCancelled = errors.New("request cancelled")

// RankFailedError reports that an operation involved a rank that has
// failed (crashed by fault injection). It is the runtime's
// MPI_ERR_PROC_FAILED: pending receives from the failed rank, and future
// sends and receives naming it, complete with this error rather than
// blocking forever. Match with errors.As or errors.Is(err, &RankFailedError{}).
type RankFailedError struct {
	// Rank is the world rank that failed.
	Rank int
	// Op describes the operation that observed the failure.
	Op string
}

// Error implements the error interface.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("rank %d failed (%s)", e.Rank, e.Op)
}

// Is reports a match against any other *RankFailedError, so
// errors.Is(err, &RankFailedError{}) tests for the failure class without
// naming a rank.
func (e *RankFailedError) Is(target error) bool {
	_, ok := target.(*RankFailedError)
	return ok
}

// IsRankFailed reports whether err wraps a RankFailedError.
func IsRankFailed(err error) bool {
	var rfe *RankFailedError
	return errors.As(err, &rfe)
}

// FaultPlan injects deterministic failures into a run. All triggers are
// expressed in operation counts, virtual time, or seeded probabilities, so
// a plan replays identically for a given Config.Seed — a failing schedule
// can be re-run and diagnosed.
type FaultPlan struct {
	// Crashes kills ranks at chosen points.
	Crashes []Crash
	// Stragglers slows ranks down by a fixed delay per operation.
	Stragglers []Straggler
	// Delays holds back individual message deliveries.
	Delays []MsgDelay
	// Drops loses individual messages on the wire (transient faults): the
	// send completes, the receiver never sees the message.
	Drops []MsgDrop
	// Dups delivers individual messages twice; the mailbox's per-sender
	// sequence dedup must suppress the second copy.
	Dups []MsgDup
}

// Crash kills one rank: the rank's goroutine stops at the trigger point
// as if the process had died, and the world marks it failed.
type Crash struct {
	// Rank is the world rank to crash.
	Rank int
	// AtOp crashes the rank when it is about to post its AtOp-th
	// point-to-point operation (1-based; collectives count through their
	// constituent sends and receives). Zero disables the operation trigger.
	AtOp int
	// AtVTime crashes the rank at the first operation at or after this
	// virtual clock value (requires a cost model). Zero disables.
	AtVTime netmodel.Time
}

// Straggler adds a fixed delay to every operation a rank posts, modeling a
// slow or overloaded process.
type Straggler struct {
	// Rank is the world rank to slow down.
	Rank int
	// PerOp is wall-clock delay added before each operation.
	PerOp time.Duration
	// PerOpV is virtual-time delay (seconds) added to the rank's clock
	// before each operation in cost-model runs.
	PerOpV netmodel.Time
}

// MsgDelay holds back matching message deliveries. In virtual-time runs
// the delay is added to the message's arrival time; in wall-clock runs the
// sender stalls before delivering (per-sender delivery stays sequential,
// preserving the non-overtaking guarantee).
type MsgDelay struct {
	// From and To select messages by sender and receiver world rank;
	// -1 matches any rank.
	From, To int
	// Every applies the delay to every Every-th matching message of each
	// sender (0 or 1 = all matching messages).
	Every int
	// Prob, if in (0,1], applies the delay to each matching message with
	// this probability, drawn from the sender's seeded generator
	// (deterministic under Config.Seed). Zero means unconditional.
	Prob float64
	// Delay is the wall-clock hold-back.
	Delay time.Duration
	// DelayV is the virtual-time hold-back in seconds.
	DelayV netmodel.Time
}

// MsgDrop loses matching messages on the wire: the sender's call completes
// with buffered-send semantics (it cannot tell), the payload's pooled wire
// is reclaimed, and the receiver never sees the message. Without an
// end-to-end retransmission layer a dropped message a collective depends on
// surfaces as a typed deadlock from the watchdog — never a silent hang.
type MsgDrop struct {
	// From and To select messages by sender and receiver world rank;
	// -1 matches any rank.
	From, To int
	// Nth drops only the Nth matching message of the sender (1-based).
	// Zero drops every matching message.
	Nth int
	// Prob, if in (0,1), drops each matching message with this probability,
	// drawn from the sender's seeded generator. Zero means unconditional.
	Prob float64
}

// MsgDup delivers matching messages twice, with an independent copy of the
// payload, exercising the receiver's duplicate suppression.
type MsgDup struct {
	// From and To select messages by sender and receiver world rank;
	// -1 matches any rank.
	From, To int
	// Nth duplicates only the Nth matching message of the sender
	// (1-based). Zero duplicates every matching message.
	Nth int
	// Prob, if in (0,1), duplicates each matching message with this
	// probability. Zero means unconditional.
	Prob float64
}

// validate checks the plan's rank references against the run size.
func (fp *FaultPlan) validate(procs int) error {
	for _, c := range fp.Crashes {
		if c.Rank < 0 || c.Rank >= procs {
			return fmt.Errorf("mpi: fault plan crashes rank %d, run has %d", c.Rank, procs)
		}
		if c.AtOp == 0 && c.AtVTime == 0 {
			return fmt.Errorf("mpi: fault plan crash of rank %d has no trigger", c.Rank)
		}
	}
	for _, s := range fp.Stragglers {
		if s.Rank < 0 || s.Rank >= procs {
			return fmt.Errorf("mpi: fault plan delays rank %d, run has %d", s.Rank, procs)
		}
	}
	for _, d := range fp.Delays {
		if d.From < -1 || d.From >= procs || d.To < -1 || d.To >= procs {
			return fmt.Errorf("mpi: fault plan delay names rank outside [-1,%d)", procs)
		}
	}
	for _, d := range fp.Drops {
		if d.From < -1 || d.From >= procs || d.To < -1 || d.To >= procs {
			return fmt.Errorf("mpi: fault plan drop names rank outside [-1,%d)", procs)
		}
		if d.Nth < 0 {
			return fmt.Errorf("mpi: fault plan drop has Nth %d < 0", d.Nth)
		}
	}
	for _, d := range fp.Dups {
		if d.From < -1 || d.From >= procs || d.To < -1 || d.To >= procs {
			return fmt.Errorf("mpi: fault plan dup names rank outside [-1,%d)", procs)
		}
		if d.Nth < 0 {
			return fmt.Errorf("mpi: fault plan dup has Nth %d < 0", d.Nth)
		}
	}
	return nil
}

// crashSignal unwinds a crashed rank's goroutine through panic/recover;
// Run recognizes it and records the failure without a stack trace.
type crashSignal struct{ err error }

// opTick runs the rank's fault-plan actions at a point-to-point operation
// boundary: straggler delay first, then the crash check. Called before each
// posted send or receive — usually from the rank's own goroutine, but a
// progress engine posts on the rank's behalf too, so the counter is atomic.
func (rs *rankState) opTick() {
	ops := rs.ops.Add(1)
	w := rs.world
	fp := w.faults
	if fp == nil {
		return
	}
	for _, s := range fp.Stragglers {
		if s.Rank != rs.rank {
			continue
		}
		if w.model != nil {
			rs.clock += s.PerOpV
		}
		if s.PerOp > 0 {
			time.Sleep(s.PerOp)
		}
	}
	for _, c := range fp.Crashes {
		if c.Rank != rs.rank {
			continue
		}
		if (c.AtOp > 0 && ops >= int64(c.AtOp)) || (c.AtVTime > 0 && w.model != nil && rs.clock >= c.AtVTime) {
			err := &RankFailedError{Rank: rs.rank, Op: fmt.Sprintf("injected crash at op %d", ops)}
			w.markDead(rs.rank, err)
			panic(crashSignal{err})
		}
	}
}

// OpCount returns how many point-to-point operations this rank has posted
// so far — the unit in which Crash.AtOp counts. Chaos harnesses use it to
// calibrate crash points against a fault-free run of the same program.
func (c *Comm) OpCount() int { return int(c.rs.ops.Load()) }

// RecoverCrash converts a recovered panic value from an injected rank
// crash into its typed error; nil when the value is something else (the
// caller must re-panic). Run recognizes the signal on the rank's own
// goroutine; a progress engine that posts operations on the rank's behalf
// recovers with this instead of dying with the simulated process, so it
// can fail its in-flight work with the typed error. The crash is recorded
// with the run exactly as the rank goroutine's recovery would record it —
// the run's error reports the injected crash without aborting the world.
func (c *Comm) RecoverCrash(r any) error {
	cs, ok := r.(crashSignal)
	if !ok {
		return nil
	}
	c.w.record(c.rank, cs.err)
	return cs.err
}

// delayFor returns the injected hold-back for a message from this rank to
// dstWorld, consuming per-spec counters and seeded randomness.
func (rs *rankState) delayFor(dstWorld int) (time.Duration, netmodel.Time) {
	fp := rs.world.faults
	if fp == nil || len(fp.Delays) == 0 {
		return 0, 0
	}
	var wall time.Duration
	var virt netmodel.Time
	if rs.delayCount == nil {
		rs.delayCount = make([]int, len(fp.Delays))
	}
	for i, d := range fp.Delays {
		if (d.From != -1 && d.From != rs.rank) || (d.To != -1 && d.To != dstWorld) {
			continue
		}
		rs.delayCount[i]++
		if d.Every > 1 && rs.delayCount[i]%d.Every != 0 {
			continue
		}
		if d.Prob > 0 && d.Prob < 1 && rs.rng.Float64() >= d.Prob {
			continue
		}
		wall += d.Delay
		virt += d.DelayV
	}
	return wall, virt
}

// dropFor reports whether the message this rank is about to send to
// dstWorld is to be lost, consuming per-spec counters and seeded
// randomness.
func (rs *rankState) dropFor(dstWorld int) bool {
	fp := rs.world.faults
	if fp == nil || len(fp.Drops) == 0 {
		return false
	}
	if rs.dropCount == nil {
		rs.dropCount = make([]int, len(fp.Drops))
	}
	drop := false
	for i, d := range fp.Drops {
		if (d.From != -1 && d.From != rs.rank) || (d.To != -1 && d.To != dstWorld) {
			continue
		}
		rs.dropCount[i]++
		if d.Nth > 0 && rs.dropCount[i] != d.Nth {
			continue
		}
		if d.Prob > 0 && d.Prob < 1 && rs.rng.Float64() >= d.Prob {
			continue
		}
		drop = true
	}
	return drop
}

// dupFor reports whether the message this rank is about to send to
// dstWorld is to be delivered twice.
func (rs *rankState) dupFor(dstWorld int) bool {
	fp := rs.world.faults
	if fp == nil || len(fp.Dups) == 0 {
		return false
	}
	if rs.dupCount == nil {
		rs.dupCount = make([]int, len(fp.Dups))
	}
	dup := false
	for i, d := range fp.Dups {
		if (d.From != -1 && d.From != rs.rank) || (d.To != -1 && d.To != dstWorld) {
			continue
		}
		rs.dupCount[i]++
		if d.Nth > 0 && rs.dupCount[i] != d.Nth {
			continue
		}
		if d.Prob > 0 && d.Prob < 1 && rs.rng.Float64() >= d.Prob {
			continue
		}
		dup = true
	}
	return dup
}

// markDead records a rank's failure and poisons every pending receive
// that the failure leaves unsatisfiable: receives naming the dead rank as
// their exact source, and — ULFM's pending-failure semantics — wildcard
// receives that were blocked when the failure happened (a message from the
// dead rank can no longer be ruled out as their match).
func (w *World) markDead(rank int, cause *RankFailedError) {
	if t := w.transport; t != nil {
		// Let in-flight self-loop frames reach their mailboxes first: on
		// the loopback path everything posted before the crash is already
		// delivered when the poison below runs, and recovery's convergence
		// relies on the poison not overtaking real messages.
		t.Drain()
	}
	w.deadMu.Lock()
	if w.dead == nil {
		w.dead = make(map[int]*RankFailedError)
	}
	if _, already := w.dead[rank]; already {
		w.deadMu.Unlock()
		return
	}
	w.dead[rank] = cause
	w.deadN.Add(1)
	w.deadMu.Unlock()
	for _, rs := range w.ranks {
		rs.box.poisonMatching(func(p *pendingRecv) error {
			if p.srcWorld == rank || p.srcWorld == AnySource {
				return &RankFailedError{Rank: rank, Op: fmt.Sprintf("receive src=%d tag=%d", p.src, p.tag)}
			}
			return nil
		})
	}
}

// isDead reports whether world rank r has been marked failed. The check is
// free until the first failure.
func (w *World) isDead(r int) bool {
	if w.deadN.Load() == 0 {
		return false
	}
	w.deadMu.Lock()
	_, dead := w.dead[r]
	w.deadMu.Unlock()
	return dead
}

// deadRanks returns the sorted world ranks marked failed.
func (w *World) deadRanks() []int {
	if w.deadN.Load() == 0 {
		return nil
	}
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	out := make([]int, 0, len(w.dead))
	for r := 0; r < w.size; r++ {
		if _, dead := w.dead[r]; dead {
			out = append(out, r)
		}
	}
	return out
}

// revokeCtxs marks contexts revoked and poisons their pending receives.
// Every caller walks the mailboxes, not only the first: a rank that
// revokes and then finishes must not leave while an earlier revoker is
// still mid-walk, or the deadlock monitor sees a peer blocked on a
// finished rank whose receive is about to be poisoned (a false orphan
// diagnosis). The walk is idempotent — a poisoned receive has left its
// queue.
func (w *World) revokeCtxs(ctxs ...int64) {
	w.deadMu.Lock()
	if w.revoked == nil {
		w.revoked = make(map[int64]bool)
	}
	fresh := false
	for _, ctx := range ctxs {
		if !w.revoked[ctx] {
			w.revoked[ctx] = true
			fresh = true
		}
	}
	if fresh {
		w.revokedN.Add(1)
	}
	w.deadMu.Unlock()
	for _, rs := range w.ranks {
		rs.box.poisonMatching(func(p *pendingRecv) error {
			for _, ctx := range ctxs {
				if p.ctx == ctx {
					return fmt.Errorf("mpi: %w (ctx=%d)", ErrRevoked, ctx)
				}
			}
			return nil
		})
	}
}

// isRevoked reports whether a context has been revoked. Free until the
// first revocation.
func (w *World) isRevoked(ctx int64) bool {
	if w.revokedN.Load() == 0 {
		return false
	}
	w.deadMu.Lock()
	revoked := w.revoked[ctx]
	w.deadMu.Unlock()
	return revoked
}

// opError returns the pre-completion error an operation on this
// communicator naming peerWorld must fail with, or nil: a revoked context
// or a failed peer. peerWorld may be AnySource (no dead-peer check — a
// wildcard receive posted after a failure may still be matched by the
// living). The operation description ("send dst"/"recv src" plus peer and
// tag) is formatted only on the failure paths, keeping the per-operation
// fast path allocation-free.
func (c *Comm) opError(peerWorld int, op string, peer int, tag int64) error {
	w := c.w
	if w.revokedN.Load() == 0 && w.deadN.Load() == 0 {
		return nil
	}
	if w.isRevoked(c.ctx) {
		return fmt.Errorf("mpi: rank %d: %s=%d tag=%d: %w (ctx=%d)", c.rank, op, peer, tag, ErrRevoked, c.ctx)
	}
	if peerWorld != AnySource && w.isDead(peerWorld) {
		return &RankFailedError{Rank: peerWorld, Op: fmt.Sprintf("%s=%d tag=%d", op, peer, tag)}
	}
	return nil
}

// failedRequest returns an already-completed request carrying err.
func failedRequest(c *Comm, kind reqKind, err error) *Request {
	return &Request{kind: kind, c: c, finished: true, err: err}
}
