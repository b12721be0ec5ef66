package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on half of the introspection plane: a
// bounded per-rank ring of recent runtime events that costs one atomic slot
// reservation, a struct's worth of stores and one atomic publication per
// record — no lock — holds fixed memory however long the world runs, and
// can be snapshotted at any moment — by the debug server's /debug/flight
// endpoint, or by the post-mortem dumper the instant the deadlock watchdog
// fires. Unlike Recorder/RoundLog (which accumulate a
// whole run for offline export), the ring forgets: it answers "what were
// the last few thousand things this rank did", which is the question a hang
// or a straggler investigation actually asks.

// FlightKind enumerates the event taxonomy of the flight recorder.
type FlightKind uint8

const (
	// FlightSendPost records a send entering the wire (post == completion
	// in the buffered runtime). Peer = destination, Bytes = payload size.
	FlightSendPost FlightKind = iota
	// FlightRecvPost records a receive being posted. Peer = source
	// (-1 for AnySource).
	FlightRecvPost
	// FlightRecvDone records a receive completing. Peer = matched source,
	// Bytes = received bytes, Arg = post→completion latency in ns.
	FlightRecvDone
	// FlightFutureCommit records an async collective committed to the
	// progress engine. Arg = future sequence number.
	FlightFutureCommit
	// FlightFutureRetire records an async collective retiring. Arg = the
	// future sequence number, Bytes = commit→retire latency in ns.
	FlightFutureRetire
	// FlightEpochBump records the communication epoch advancing during
	// recovery. Arg = new epoch.
	FlightEpochBump
	// FlightRecovery records one recovery step (shrink, re-embed, agree).
	// Arg is step-specific.
	FlightRecovery
	// FlightFailure records a typed failure observed by this rank
	// (watchdog diagnosis, rank crash, abort cascade).
	FlightFailure
)

var flightKindNames = [...]string{
	FlightSendPost:     "send-post",
	FlightRecvPost:     "recv-post",
	FlightRecvDone:     "recv-done",
	FlightFutureCommit: "future-commit",
	FlightFutureRetire: "future-retire",
	FlightEpochBump:    "epoch-bump",
	FlightRecovery:     "recovery",
	FlightFailure:      "failure",
}

// String returns the kind's taxonomy name.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("flight-kind-%d", int(k))
}

// MarshalText renders the kind name, so flight tails in JSON bundles read
// as taxonomy names rather than bare numbers.
func (k FlightKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a taxonomy name back — post-mortem bundles must be
// parseable by carttrace, not just writable.
func (k *FlightKind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range flightKindNames {
		if n == s {
			*k = FlightKind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown flight kind %q", s)
}

// FlightEvent is one fixed-size flight-recorder record. Fields beyond Kind
// are kind-specific (see the kind constants); unused ones are zero.
type FlightEvent struct {
	Seq   uint64     `json:"seq"` // per-ring sequence number, from 0
	AtNs  int64      `json:"at_ns"`
	Kind  FlightKind `json:"kind"`
	Rank  int32      `json:"rank"`
	Peer  int32      `json:"peer"`
	Tag   int64      `json:"tag"`
	Bytes int64      `json:"bytes,omitempty"`
	Arg   int64      `json:"arg,omitempty"`
}

// flightRing is one rank's bounded event ring. Writers — the rank's
// goroutine, a progress-engine worker, the failure path — never lock:
// each reserves a sequence number from next with one atomic add, owns
// slot seq % cap while it writes the event, and publishes it by storing
// the slot's atomic stamp (seq+1). The ring header is padded to its own
// cache line so neighbouring ranks' writers never share one.
//
// Readers (Tail) validate instead of locking: a slot copy is kept only if
// its stamp names the wanted sequence number and, after the copy, no
// writer has reserved the slot's next lap (next <= seq+cap) — a lapping
// writer reserves before it writes, so a copy that raced one is detected
// and dropped. Every field is an atomic, in every build: the atomic
// loads order the field reads before the re-check of next (a plain load
// could complete after it on weakly ordered CPUs), and the race detector
// checks the same code that ships. On amd64 the loads compile to plain
// moves and each store to one locked exchange: a published event costs
// one atomic add and six atomic stores (five fields and the stamp).
type flightRing struct {
	next  atomic.Uint64 // sequence numbers reserved so far
	slots []flightSlot
	_     [64 - 8 - 24]byte
}

// flightSlot is one ring entry: the publication stamp plus the event's
// fields, kind and peer packed into meta.
type flightSlot struct {
	stamp atomic.Uint64
	at    atomic.Int64
	meta  atomic.Uint64
	tag   atomic.Int64
	bytes atomic.Int64
	arg   atomic.Int64
}

// write stores an event's fields (publication is the caller's stamp).
func (s *flightSlot) write(at int64, meta uint64, tag, bytes, arg int64) {
	s.at.Store(at)
	s.meta.Store(meta)
	s.tag.Store(tag)
	s.bytes.Store(bytes)
	s.arg.Store(arg)
}

// read loads an event's fields.
func (s *flightSlot) read(seq uint64, rank int) FlightEvent {
	meta := s.meta.Load()
	return FlightEvent{
		Seq: seq, AtNs: s.at.Load(), Kind: FlightKind(meta >> 32),
		Rank: int32(rank), Peer: int32(uint32(meta)),
		Tag: s.tag.Load(), Bytes: s.bytes.Load(), Arg: s.arg.Load(),
	}
}

// FlightRecorder is the per-world set of per-rank rings. The zero pointer
// is a disabled recorder: every method nil-checks, so call sites hook in
// unconditionally and pay one branch when recording is off.
type FlightRecorder struct {
	rings []flightRing
	cap   int
	start time.Time
}

// DefaultFlightCap is the per-rank ring capacity when none is given:
// recent-history depth for a busy rank at ~56 B/event, ~115 KiB per rank.
const DefaultFlightCap = 2048

// NewFlightRecorder creates rings for ranks ranks with the given per-rank
// capacity (<=0 selects DefaultFlightCap). All ring memory is allocated
// here; recording never allocates.
func NewFlightRecorder(ranks, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	f := &FlightRecorder{rings: make([]flightRing, ranks), cap: capacity, start: time.Now()}
	for i := range f.rings {
		f.rings[i].slots = make([]flightSlot, capacity)
	}
	return f
}

// Ranks returns the number of per-rank rings (0 when disabled).
func (f *FlightRecorder) Ranks() int {
	if f == nil {
		return 0
	}
	return len(f.rings)
}

// Cap returns the per-rank ring capacity (0 when disabled).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.cap
}

// now returns nanoseconds since the recorder was created (monotonic).
func (f *FlightRecorder) now() int64 { return int64(time.Since(f.start)) }

// Now returns the recorder's monotonic clock reading in nanoseconds — the
// timebase of recorded events (0 when disabled). Callers that stamp their
// own durations (a receive's post time, say) read it so latencies line up
// with event timestamps.
func (f *FlightRecorder) Now() int64 {
	if f == nil {
		return 0
	}
	return f.now()
}

// Record appends one event to rank's ring, stamping its time and sequence
// number. Safe for concurrent use; no-op on a nil recorder or an
// out-of-range rank (a shrunk world keeps its original ring count, but a
// defensive check beats a panic inside the runtime's hot path).
func (f *FlightRecorder) Record(rank int, kind FlightKind, peer int, tag, bytes, arg int64) {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return
	}
	f.RecordAt(rank, f.now(), kind, peer, tag, bytes, arg)
}

// RecordAt is Record with the caller's clock reading at (from Now): a
// call site that also needs the time — a receive stamping its post time,
// or computing its latency — reads the clock once per event.
func (f *FlightRecorder) RecordAt(rank int, at int64, kind FlightKind, peer int, tag, bytes, arg int64) {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return
	}
	r := &f.rings[rank]
	seq := r.next.Add(1) - 1
	s := &r.slots[seq%uint64(len(r.slots))]
	s.write(at, uint64(kind)<<32|uint64(uint32(int32(peer))), tag, bytes, arg)
	s.stamp.Store(seq + 1)
}

// Total returns the number of events ever recorded on rank's ring (not
// bounded by capacity — the ring keeps only the newest Cap of them).
func (f *FlightRecorder) Total(rank int) uint64 {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return 0
	}
	return f.rings[rank].next.Load()
}

// Tail copies out the newest events of rank's ring, oldest first, at most
// max (<=0 means the whole retained window). The copy is gap-free: it is
// the longest run of consecutive sequence numbers that ends at the newest
// fully published event — entries overwritten during the copy are cut
// from the old end, entries still being written from the new end.
func (f *FlightRecorder) Tail(rank, max int) []FlightEvent {
	if f == nil || rank < 0 || rank >= len(f.rings) {
		return nil
	}
	r := &f.rings[rank]
	n := r.next.Load()
	held := n
	if held > uint64(len(r.slots)) {
		held = uint64(len(r.slots))
	}
	if max > 0 && uint64(max) < held {
		held = uint64(max)
	}
	out := make([]FlightEvent, 0, held)
	capacity := uint64(len(r.slots))
	for seq := n - held; seq < n; seq++ {
		s := &r.slots[seq%capacity]
		st := s.stamp.Load()
		if st < seq+1 && r.next.Load() <= seq+capacity {
			break // still being written: the published run ends here
		}
		e := s.read(seq, rank)
		if st != seq+1 || r.next.Load() > seq+capacity {
			out = out[:0] // overwritten by a newer lap: restart past it
			continue
		}
		out = append(out, e)
	}
	return out
}

// TailAll returns every rank's tail (index = rank), each bounded by max.
func (f *FlightRecorder) TailAll(max int) [][]FlightEvent {
	if f == nil {
		return nil
	}
	out := make([][]FlightEvent, len(f.rings))
	for i := range f.rings {
		out[i] = f.Tail(i, max)
	}
	return out
}

// Export replays every ring's retained tail into the timeline — the flight
// recorder's EventSink contract. Matched recv post→done pairs render as
// spans (the done event carries its latency, so the span needs no pairing
// search); everything else is an instant.
func (f *FlightRecorder) Export(tl *Timeline, pid int) {
	if f == nil {
		return
	}
	for rank := range f.rings {
		tr := Track{pid, rank}
		tl.SetThread(tr, fmt.Sprintf("rank %d", rank))
		for _, e := range f.Tail(rank, 0) {
			switch e.Kind {
			case FlightRecvDone:
				tl.AddSpan(Span{
					Track: tr, Name: fmt.Sprintf("recv←%d", e.Peer), Cat: "flight",
					StartNs: e.AtNs - e.Arg, DurNs: e.Arg,
					Peer: int(e.Peer), Bytes: int(e.Bytes), Tag: int(e.Tag),
				})
			case FlightFutureRetire:
				tl.AddSpan(Span{
					Track: tr, Name: fmt.Sprintf("future #%d", e.Arg), Cat: "flight",
					StartNs: e.AtNs - e.Bytes, DurNs: e.Bytes, Tag: int(e.Tag),
				})
			default:
				tl.AddInstant(Instant{
					Track: tr, Name: e.Kind.String(), Cat: "flight",
					AtNs: e.AtNs, Peer: int(e.Peer), Tag: int(e.Tag),
				})
			}
		}
	}
}
