package mpi

import (
	"time"

	"cartcc/internal/metrics"
	"cartcc/internal/trace"
)

// This file is the runtime's live-introspection surface: exported,
// read-only probes over a running world that the debug server
// (internal/introspect) serves as /debug/state and the post-mortem dumper
// persists when the run fails. Everything here reads atomics or takes the
// same short-lived locks the runtime itself uses, so a snapshot can be
// taken from an HTTP handler goroutine while all ranks are mid-collective
// — including when they are all deadlocked, which is exactly when the
// snapshot matters most.

// World returns the world the communicator belongs to — the handle the
// introspection plane hangs off (introspect.Serve(comm.World())).
func (c *Comm) World() *World { return c.w }

// Flight returns the world's flight recorder (nil when disabled).
func (w *World) Flight() *trace.FlightRecorder { return w.flight }

// Metrics returns the run's metrics registry (Config.Metrics; nil when
// the run was started without one).
func (w *World) Metrics() *metrics.Registry { return w.metricsReg }

// Size returns the number of ranks the world was created with.
func (w *World) Size() int { return w.size }

// CurrentEpoch returns the highest recovery epoch allocated so far (0
// until a Shrink consensus).
func (w *World) CurrentEpoch() int64 { return w.epochSeq.Load() }

// Aborted reports whether the run has failed and released its ranks.
func (w *World) Aborted() bool { return w.failed.Load() }

// FailedRanks returns the sorted world ranks marked failed.
func (w *World) FailedRanks() []int { return w.deadRanks() }

// RankDebug is one rank's entry in a world debug snapshot.
type RankDebug struct {
	Rank int `json:"rank"`
	// Done reports the rank's goroutine has returned.
	Done bool `json:"done"`
	// Failed reports the rank is marked dead (injected crash or consensus).
	Failed bool `json:"failed,omitempty"`
	// Blocked describes the blocking wait the rank is registered in, empty
	// when it is running. BlockedMs is how long it has waited, WaitsOn the
	// exact source world rank it waits for (-1 for wildcard or none).
	Blocked   string  `json:"blocked,omitempty"`
	BlockedMs float64 `json:"blocked_ms,omitempty"`
	WaitsOn   int     `json:"waits_on"`
	// PendingRecvs and Unexpected are the rank's mailbox depths: receives
	// posted but unmatched, and arrived-but-unclaimed messages.
	PendingRecvs int `json:"pending_recvs"`
	Unexpected   int `json:"unexpected"`
	// Ops is the rank's point-to-point operation count.
	Ops int64 `json:"ops"`
	// FlightTotal is the number of events ever recorded on the rank's
	// flight ring; a healthz probe watches it advance.
	FlightTotal uint64 `json:"flight_total"`
}

// WorldDebug is a coherent-enough snapshot of a running world: each field
// is read atomically, cross-rank skew is bounded by in-flight operations.
type WorldDebug struct {
	Size int `json:"size"`
	// Epoch is the highest recovery epoch allocated.
	Epoch int64 `json:"epoch"`
	// Aborted reports a recorded failure has released the ranks.
	Aborted bool `json:"aborted,omitempty"`
	// FailedRanks lists ranks marked dead.
	FailedRanks []int `json:"failed_ranks,omitempty"`
	// RevokedCtxs counts revoked communicator contexts.
	RevokedCtxs int `json:"revoked_ctxs,omitempty"`
	// WiresOut is the number of pooled wire buffers currently out of the
	// pool (drawn for an in-flight message and not yet released).
	WiresOut int64       `json:"wires_out"`
	Ranks    []RankDebug `json:"ranks"`
}

// DebugSnapshot captures the world's current state. Safe to call from any
// goroutine at any point in the run, including after it has ended.
func (w *World) DebugSnapshot() WorldDebug {
	now := time.Now()
	d := WorldDebug{
		Size:        w.size,
		Epoch:       w.epochSeq.Load(),
		Aborted:     w.failed.Load(),
		FailedRanks: w.deadRanks(),
		RevokedCtxs: int(w.revokedN.Load()),
		WiresOut:    w.wireOut.Load(),
		Ranks:       make([]RankDebug, w.size),
	}
	for r := 0; r < w.size; r++ {
		rd := &d.Ranks[r]
		rd.Rank = r
		rd.WaitsOn = -1
		rd.Done = w.done[r].Load()
		rd.Ops = w.ranks[r].ops.Load()
		rd.PendingRecvs, rd.Unexpected = w.ranks[r].box.pendingPosted()
		rd.FlightTotal = w.flight.Total(r)
		if w.monitoring {
			if op := w.viewBlocked(r); op.on {
				rd.Blocked = op.describe()
				rd.BlockedMs = float64(now.Sub(op.since)) / float64(time.Millisecond)
				rd.WaitsOn = op.waitsOn
			}
		}
	}
	for _, fr := range d.FailedRanks {
		if fr >= 0 && fr < len(d.Ranks) {
			d.Ranks[fr].Failed = true
		}
	}
	return d
}

// FlightTail returns the newest flight-recorder events of every rank
// (index = world rank), each bounded by max (<=0 for the full retained
// window). Nil when the recorder is disabled.
func (w *World) FlightTail(max int) [][]trace.FlightEvent {
	return w.flight.TailAll(max)
}

// Diagnose runs the wait-for-graph deadlock proofs against the current
// blocked registry and returns the diagnosis, or nil while progress is
// still possible (or when the monitor is disabled). minBlocked is the
// stall threshold: only ranks blocked at least that long count as stuck
// (the watchdog's own sampling uses a multiple of its poll interval; a
// /healthz probe should pass something comfortably above scheduler
// jitter). This is the same check the watchdog runs on its poll tick,
// exposed so a health endpoint can report a provably stalled world
// without waiting for the watchdog's confirmation window.
func (w *World) Diagnose(minBlocked time.Duration) *DeadlockError {
	if !w.monitoring {
		return nil
	}
	return w.deadlockCheck(minBlocked, newDeadlockScratch(w.size))
}
