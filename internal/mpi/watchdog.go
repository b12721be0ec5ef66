package mpi

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// This file implements the wait-for-graph deadlock monitor that replaces
// the old blind per-receive timer as the runtime's first line of defense.
// Every blocking wait registers what it waits for; a monitor goroutine
// samples the registry and fails the run with a full diagnostic the moment
// it can prove no rank will make progress — in milliseconds, instead of a
// 60-second timeout that names one receive.

// DefaultDeadlockPoll is the default sampling interval of the wait-for-graph
// deadlock monitor.
const DefaultDeadlockPoll = time.Millisecond

// blockedOp is one rank's registered blocked state: the operation it is
// waiting in, when the wait started, and the receives whose completion
// would release it.
type blockedOp struct {
	kind  string // "recv" or "waitsome"
	src   int    // communicator-level source (recv kind; may be AnySource)
	tag   int
	ctx   int64
	since time.Time
	// pendings are the posted receives whose delivery releases the rank;
	// srcWorlds are the corresponding exact source world ranks (-1 for
	// wildcard), aligned by index.
	pendings  []*pendingRecv
	srcWorlds []int
}

// satisfiable reports whether any awaited receive has had a message (or
// poison) matched to it: the rank is being released — or was released and
// simply hasn't been scheduled to deregister yet — not deadlocked.
func (op *blockedOp) satisfiable() bool {
	for _, p := range op.pendings {
		if p.claimed() {
			return true
		}
	}
	return false
}

// waitsOn is the exact source world rank a blocked receive waits on, or
// -1 (wildcard, or a waitsome).
func (op *blockedOp) waitsOn() int {
	if op.kind == "recv" {
		return op.srcWorlds[0]
	}
	return -1
}

// blockedSlot is one rank's entry in the blocked registry. The blocking
// goroutine fills it in place and the monitor reads it, both under mu, so
// the registration reuses the slot's memory (no allocation per blocking
// wait) and the monitor never sees a half-written snapshot. A blocked
// rank's receives are immutable while it waits except for their atomic
// state words, which is all satisfiable reads.
type blockedSlot struct {
	mu sync.Mutex
	on bool
	op blockedOp
}

// blockRecv registers the calling rank as blocked in a receive;
// blockWaitsome as blocked in a Waitsome over the non-nil entries of
// pends (srcs aligned); clearBlocked removes the registration.
func (w *World) blockRecv(rank int, p *pendingRecv) {
	sl := &w.blocked[rank]
	sl.mu.Lock()
	op := &sl.op
	op.kind, op.src, op.tag, op.ctx, op.since = "recv", p.src, p.tag, p.ctx, time.Now()
	op.pendings = append(op.pendings[:0], p)
	op.srcWorlds = append(op.srcWorlds[:0], p.srcWorld)
	sl.on = true
	sl.mu.Unlock()
}

func (w *World) blockWaitsome(rank int, pends []*pendingRecv, srcs []int) {
	sl := &w.blocked[rank]
	sl.mu.Lock()
	op := &sl.op
	op.kind, op.src, op.tag, op.ctx, op.since = "waitsome", 0, 0, 0, time.Now()
	op.pendings, op.srcWorlds = op.pendings[:0], op.srcWorlds[:0]
	for i, p := range pends {
		if p != nil {
			op.pendings = append(op.pendings, p)
			op.srcWorlds = append(op.srcWorlds, srcs[i])
		}
	}
	sl.on = true
	sl.mu.Unlock()
}

func (w *World) clearBlocked(rank int) {
	sl := &w.blocked[rank]
	sl.mu.Lock()
	sl.on = false
	clear(sl.op.pendings)
	sl.mu.Unlock()
}

// blockedView is the monitor's copy of one rank's registration: what the
// deadlock proofs read plus what a report describes, so a diagnosis is
// built from the very snapshot that proved it.
type blockedView struct {
	on          bool
	kind        string
	src, tag    int
	ctx         int64
	npend       int // awaited receives
	since       time.Time
	satisfiable bool
	waitsOn     int
}

// viewBlocked copies rank's registration out under the slot lock.
func (w *World) viewBlocked(rank int) blockedView {
	sl := &w.blocked[rank]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.on {
		return blockedView{waitsOn: -1}
	}
	op := &sl.op
	return blockedView{
		on: true, kind: op.kind, src: op.src, tag: op.tag, ctx: op.ctx,
		npend: len(op.pendings), since: op.since,
		satisfiable: op.satisfiable(), waitsOn: op.waitsOn(),
	}
}

// describe renders the blocked operation for the diagnostic report.
func (v *blockedView) describe() string {
	if v.kind == "waitsome" {
		return fmt.Sprintf("%s over %d pending receive(s)", v.kind, v.npend)
	}
	src := fmt.Sprintf("%d", v.src)
	if v.src == AnySource {
		src = "any"
	}
	tag := fmt.Sprintf("%d", v.tag)
	if v.tag == AnyTag {
		tag = "any"
	}
	return fmt.Sprintf("recv(src=%s tag=%s ctx=%d)", src, tag, v.ctx)
}

// BlockedRank is one rank's entry in a deadlock report: its pending
// operation and the unexpected messages queued in its mailbox (the
// mismatched traffic that explains *why* nothing matches).
type BlockedRank struct {
	Rank       int
	Op         string
	BlockedFor time.Duration
	// WaitsOn is the exact source world rank the op waits on, or -1.
	WaitsOn int
	// Queued are the envelopes of the rank's unexpected-message queue.
	Queued []string
}

// DeadlockError is the wait-for-graph monitor's diagnosis: which proof of
// non-progress fired and every blocked rank's pending operation with its
// queued unexpected messages. Match with errors.As.
type DeadlockError struct {
	// Kind is the proof that fired: "all-blocked" (every live rank waits on
	// an unsatisfiable receive), "cycle" (a wait-for cycle among exact-source
	// receives), or "orphan" (a receive from a rank that already finished).
	Kind string
	// Cycle holds the world ranks of the wait-for cycle, in order (cycle
	// kind only).
	Cycle []int
	// Blocked reports every currently blocked rank.
	Blocked []BlockedRank
	// Finished and Failed list ranks that completed or crashed.
	Finished []int
	Failed   []int
}

// Error renders the full multi-line diagnostic report.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	switch e.Kind {
	case "cycle":
		parts := make([]string, 0, len(e.Cycle)+1)
		for _, r := range e.Cycle {
			parts = append(parts, fmt.Sprintf("%d", r))
		}
		parts = append(parts, fmt.Sprintf("%d", e.Cycle[0]))
		fmt.Fprintf(&b, "mpi: deadlock detected: wait-for cycle %s", strings.Join(parts, " -> "))
	case "orphan":
		fmt.Fprintf(&b, "mpi: deadlock detected: blocked receive from a finished rank")
	default:
		fmt.Fprintf(&b, "mpi: deadlock detected: all %d live ranks blocked", len(e.Blocked))
	}
	for _, br := range e.Blocked {
		fmt.Fprintf(&b, "\n  rank %d: %s blocked %v", br.Rank, br.Op, br.BlockedFor.Round(time.Millisecond))
		if len(br.Queued) == 0 {
			b.WriteString("; unexpected queue empty")
		} else {
			fmt.Fprintf(&b, "; unexpected queue: %s", strings.Join(br.Queued, ", "))
		}
	}
	if len(e.Finished) > 0 {
		fmt.Fprintf(&b, "\n  finished ranks: %v", e.Finished)
	}
	if len(e.Failed) > 0 {
		fmt.Fprintf(&b, "\n  failed ranks: %v", e.Failed)
	}
	return b.String()
}

// runMonitor samples the blocked registry every interval and fails the run
// once a deadlock proof holds on two consecutive samples (the confirmation
// absorbs the harmless instant between a message being handed over and the
// receiver waking).
func (w *World) runMonitor(interval time.Duration, stop <-chan struct{}) {
	minBlocked := 4 * interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	confirmations := 0
	scr := newDeadlockScratch(w.size)
	for {
		select {
		case <-stop:
			return
		case <-w.abort:
			return
		case <-ticker.C:
		}
		if diag := w.deadlockCheck(minBlocked, scr); diag != nil {
			confirmations++
			if confirmations >= 2 {
				w.fail(diag)
				return
			}
		} else {
			confirmations = 0
		}
	}
}

// inFlightStallBound is how long deadlockCheck defers to a transport
// InFlight() count that is positive but not advancing. A healthy pipe
// drains in microseconds; a count frozen for this long means its frames
// were lost (e.g. a failed self-link) and the blocked-rank proofs are
// sound again — without the bound, a wedged pipe would suppress deadlock
// detection forever.
const inFlightStallBound = 2 * time.Second

// deadlockScratch is deadlockCheck's working memory, owned by its caller
// (the monitor keeps one for its lifetime) so a poll allocates nothing.
type deadlockScratch struct {
	ops      []blockedView
	stuck    []bool // blocked long enough, nothing deliverable
	finished []bool
	edge     []int
	state    []int // 0 unvisited, 1 on path, 2 done
	path     []int
}

func newDeadlockScratch(n int) *deadlockScratch {
	return &deadlockScratch{
		ops:      make([]blockedView, n),
		stuck:    make([]bool, n),
		finished: make([]bool, n),
		edge:     make([]int, n),
		state:    make([]int, n),
		path:     make([]int, 0, n),
	}
}

// deadlockCheck applies the three proofs of non-progress to a snapshot of
// the blocked registry and returns a diagnosis, or nil while progress is
// still possible.
func (w *World) deadlockCheck(minBlocked time.Duration, scr *deadlockScratch) *DeadlockError {
	// A transport with frames still in its self-loop pipe (accepted by Send,
	// not yet handed to a local mailbox) is progress in motion the blocked
	// registry cannot see; no proof is sound until the pipe drains — unless
	// the count has been frozen past inFlightStallBound.
	if t := w.transport; t != nil {
		if n := t.InFlight(); n > 0 {
			if n != w.dlInFlight || w.dlInFlightSince.IsZero() {
				w.dlInFlight, w.dlInFlightSince = n, time.Now()
			}
			if time.Since(w.dlInFlightSince) < inFlightStallBound {
				return nil
			}
		} else if w.dlInFlight != 0 {
			w.dlInFlight, w.dlInFlightSince = 0, time.Time{}
		}
	}
	n := w.size
	now := time.Now()
	ops, stuck, finished := scr.ops, scr.stuck, scr.finished
	active := 0
	allStuck := true
	for r := 0; r < n; r++ {
		ops[r], stuck[r], finished[r] = blockedView{waitsOn: -1}, false, false
		if w.done[r].Load() {
			finished[r] = true
			continue
		}
		active++
		op := w.viewBlocked(r)
		ops[r] = op
		if !op.on || now.Sub(op.since) < minBlocked || op.satisfiable {
			allStuck = false
			continue
		}
		stuck[r] = true
	}
	if active == 0 {
		return nil
	}
	if allStuck {
		return w.buildDiagnosis("all-blocked", nil, ops, finished)
	}
	// Orphan wait: an exact-source receive from a rank that has finished
	// (or died) can never be matched — finished ranks send nothing more.
	for r := 0; r < n; r++ {
		if !stuck[r] {
			continue
		}
		if src := ops[r].waitsOn; src >= 0 && finished[src] {
			return w.buildDiagnosis("orphan", nil, ops, finished)
		}
	}
	// Wait-for cycle among stuck exact-source receives: every member waits
	// on the next, none can send until released.
	edge, state := scr.edge, scr.state
	for r := 0; r < n; r++ {
		edge[r], state[r] = -1, 0
		if stuck[r] && ops[r].waitsOn >= 0 {
			edge[r] = ops[r].waitsOn
		}
	}
	for start := 0; start < n; start++ {
		path := scr.path[:0]
		for r := start; r >= 0 && edge[r] >= 0; r = edge[r] {
			if state[r] == 2 {
				break
			}
			if state[r] == 1 {
				// Found the cycle: trim the path's leading tail.
				for i, pr := range path {
					if pr == r {
						return w.buildDiagnosis("cycle", path[i:], ops, finished)
					}
				}
				break
			}
			state[r] = 1
			path = append(path, r)
		}
		for _, r := range path {
			state[r] = 2
		}
		scr.path = path
	}
	return nil
}

// buildDiagnosis assembles the report from the snapshot ops that proved
// the deadlock: every blocked rank's pending op and unexpected-message
// queue, plus the finished and failed rank lists.
func (w *World) buildDiagnosis(kind string, cycle []int, ops []blockedView, finished []bool) *DeadlockError {
	now := time.Now()
	diag := &DeadlockError{Kind: kind, Cycle: append([]int(nil), cycle...)}
	for r := 0; r < w.size; r++ {
		if finished[r] {
			diag.Finished = append(diag.Finished, r)
			continue
		}
		op := &ops[r]
		if !op.on {
			continue
		}
		diag.Blocked = append(diag.Blocked, BlockedRank{
			Rank:       r,
			Op:         op.describe(),
			BlockedFor: now.Sub(op.since),
			WaitsOn:    op.waitsOn,
			Queued:     w.ranks[r].box.snapshotArrived(),
		})
	}
	diag.Failed = w.deadRanks()
	return diag
}
