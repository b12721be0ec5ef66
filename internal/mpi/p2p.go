package mpi

import (
	"fmt"
	"time"

	"cartcc/internal/datatype"
	"cartcc/internal/trace"
)

// sentRequest is the request of every send that completed successfully.
// Sends are buffered — complete the moment they are posted — so a
// successful send's request carries nothing but "finished, no error", and
// one immutable finished request serves them all: Wait, Test, Cancel and
// Free only read a finished request, and posting a send allocates none.
var sentRequest = &Request{kind: reqSend, finished: true}

// sendRequest wraps a send's posting outcome in its request.
func sendRequest(c *Comm, err error) *Request {
	if err != nil {
		return failedRequest(c, reqSend, err)
	}
	return sentRequest
}

// isendRawTag posts a buffered send of payload s (already packed or, on
// the zero-copy path, aliasing the user buffer) and returns the send's
// outcome. detach and release are the payload's ownership hooks (see
// mailbox.message): detach for zero-copy payloads aliasing the user
// buffer, release for pooled wires; both nil for plainly-allocated wires.
//
// Virtual-time semantics follow a LogGP-style postal model: the sender's
// clock serializes on the per-message overhead plus the injection time
// β·bytes (consecutive sends share one NIC), and the message then spends
// the wire latency α in flight. Self-messages skip the wire but still pay
// the copy (injection) cost.
func isendRawTag[T any](c *Comm, s []T, et *elemType, dst int, tag int64, detach, release func(*World, *message)) error {
	nbytes := len(s) * int(et.size)
	rs := c.rs
	rs.opTick()
	if met := rs.met; met != nil {
		met.sendsPosted.Inc()
		met.sendBytes.Add(int64(nbytes))
	}
	c.w.flight.Record(rs.rank, trace.FlightSendPost, c.worldRank(dst), tag, int64(nbytes), 0)
	// One sender, one delivery order: sequence allocation through delivery
	// (injected delays included) happens under the per-sender send lock, so
	// a progress engine posting concurrently with the rank's goroutine
	// cannot deliver out of sequence order — the receiver's dedup would
	// drop the regressing message.
	rs.sendMu.Lock()
	defer rs.sendMu.Unlock()
	rs.sendSeq++
	m := newMessage()
	m.ctx, m.epoch, m.src, m.tag = c.ctx, c.epoch, c.rank, int(tag)
	setPayload(m, s, et)
	m.bytes, m.detach, m.release = nbytes, detach, release
	m.srcWorld, m.sseq = rs.rank, rs.sendSeq
	dstWorld := c.worldRank(dst)
	if err := c.opError(dstWorld, "send dst", dst, tag); err != nil {
		// The peer has failed or the context is revoked: the send completes
		// with the typed error instead of silently dropping data. A pooled
		// wire goes back to the pool — it was never delivered.
		rs.box.discard(m)
		return err
	}
	if rs.dropFor(dstWorld) {
		// Injected transient fault: the message is lost on the wire. The
		// send completes normally (buffered semantics — the sender cannot
		// tell) and the payload's pooled wire goes straight back.
		rs.box.discard(m)
		if met := rs.met; met != nil {
			met.msgDropped.Inc()
		}
		return nil
	}
	// An injected duplicate must carry its own copy of the payload: the
	// original may be scattered zero-copy into the receiver's buffer the
	// moment it is delivered, so the copy is taken now, while the payload
	// is still intact. The duplicate keeps the original's send sequence
	// number — that is what makes it a duplicate to the receiver's dedup.
	var dup *message
	if rs.dupFor(dstWorld) {
		dup = newMessage()
		gen := dup.gen
		*dup = *m
		dup.gen, dup.detach, dup.release = gen, nil, nil
		clonePayload(dup)
		if met := rs.met; met != nil {
			met.msgDuplicated.Inc()
		}
	}
	delayWall, delayV := rs.delayFor(dstWorld)
	if delayWall > 0 && c.w.model == nil {
		// Stalling the sender before delivery keeps per-sender delivery
		// sequential, preserving the non-overtaking guarantee.
		time.Sleep(delayWall)
	}
	if model := c.w.model; model != nil {
		start := rs.clock
		alpha, beta := model.PathParams(rs.rank, dstWorld)
		rs.clock += model.SendOverhead + beta*float64(nbytes)
		cost := alpha + delayV
		if model.Noise != nil {
			cost += model.Noise.Sample(rs.rng, model.Cost(nbytes))
		}
		m.arrive = rs.clock + cost
		if dup != nil {
			dup.arrive = m.arrive
		}
		if rec := c.w.rec; rec != nil {
			rec.Add(trace.Event{
				Rank: rs.rank, Kind: trace.KindSend, Peer: dstWorld,
				Bytes: nbytes, Tag: int(tag), Start: start, End: rs.clock,
			})
		}
	}
	if err := c.w.route(dstWorld, m); err != nil {
		// The transport could not carry the message (peer process gone,
		// payload not wire-encodable): complete the send with the typed
		// error — buffers were reclaimed by Send before it failed, or are
		// still owned by the message; discard covers both.
		rs.box.discard(m)
		if dup != nil {
			rs.box.discard(dup)
		}
		return err
	}
	if dup != nil {
		if c.w.route(dstWorld, dup) != nil { // best effort, like the fault it mimics
			rs.box.discard(dup)
		}
	}
	return nil
}

// RecvScatter is a receive's unpack step: it type-checks a matched payload
// and scatters it into the receiver's buffers. The runtime is
// deliberately strict — the message must carry exactly the described
// number of elements of the expected type; a size or type mismatch is a
// schedule bug, not data to truncate. Build one with NewCompositeScatter;
// a scatter holds no per-receive state, so schedule executors compile one
// per round and post every execution's receive through it (PostRecv).
type RecvScatter interface {
	scatter(m *message) error
}

// layoutScatter scatters into one buffer through a layout.
type layoutScatter[T any] struct {
	buf []T
	l   datatype.Layout
	et  *elemType
}

// newLayoutScatter returns Irecv's scatter: into the elements of buf
// selected by l.
func newLayoutScatter[T any](buf []T, l datatype.Layout) *layoutScatter[T] {
	return &layoutScatter[T]{buf: buf, l: l, et: elemTypeOf[T]()}
}

func (s *layoutScatter[T]) scatter(m *message) error {
	wire, ok := payloadAs[T](m, s.et)
	if !ok {
		return typeMismatch[T](m)
	}
	if len(wire) != s.l.Size() {
		return fmt.Errorf("mpi: size mismatch: received %d elements, receive layout describes %d", len(wire), s.l.Size())
	}
	datatype.Scatter(s.buf, wire, s.l)
	return nil
}

// CompositeScatter scatters across several buffers through a composite —
// the receiver side of one schedule round.
type CompositeScatter[T any] struct {
	bufs [][]T
	comp *datatype.Composite
	et   *elemType
}

// NewCompositeScatter returns the scatter of IrecvComposite: through comp
// across bufs. The buffers are read when a payload lands, not here, so a
// caller that keeps bufs (the slice's backing array) may swap the buffers
// it holds between executions and reuse the scatter.
func NewCompositeScatter[T any](bufs [][]T, comp *datatype.Composite) *CompositeScatter[T] {
	return &CompositeScatter[T]{bufs: bufs, comp: comp, et: elemTypeOf[T]()}
}

func (s *CompositeScatter[T]) scatter(m *message) error {
	wire, ok := payloadAs[T](m, s.et)
	if !ok {
		return typeMismatch[T](m)
	}
	if len(wire) != s.comp.Size() {
		return fmt.Errorf("mpi: size mismatch: received %d elements, receive composite describes %d", len(wire), s.comp.Size())
	}
	datatype.ScatterComposite(s.bufs, wire, s.comp)
	return nil
}

// PostRecv posts a receive into the caller-owned request r, scattering
// through s (src may be AnySource and tag AnyTag; deferScatter as for
// IrecvComposite). Posting allocates nothing: the pending receive lives
// inside r. r must be new (zero) or hold a completed operation — Wait,
// Test, Cancel or Free has returned its result — and it is reset for the
// new receive; re-posting a request whose receive is still in flight
// panics rather than corrupting the mailbox. Schedule executors keep one
// request per round in plan scratch and re-post it every execution.
func PostRecv(r *Request, c *Comm, s RecvScatter, src, tag int, deferScatter bool) error {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return err
		}
	}
	if tag < 0 && tag != AnyTag {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	c.postRecv(r, src, int64(tag), s, deferScatter)
	return nil
}

// postRecv resets r into a receive and posts it.
func (c *Comm) postRecv(r *Request, src int, tag int64, s RecvScatter, deferConsume bool) {
	r.reuseRecv(c)
	c.rs.opTick()
	if met := c.rs.met; met != nil {
		met.recvsPosted.Inc()
	}
	srcWorld := AnySource
	if src != AnySource {
		srcWorld = c.worldRank(src)
	}
	p := &r.recv
	p.ctx, p.epoch, p.src, p.tag, p.srcWorld = c.ctx, c.epoch, src, int(tag), srcWorld
	p.consume, p.deferConsume = s, deferConsume
	if fl := c.w.flight; fl != nil {
		p.postNs = fl.Now()
		fl.RecordAt(c.rs.rank, p.postNs, trace.FlightRecvPost, srcWorld, tag, 0, 0)
	}
	// Post first, check faults after: a receive whose message has already
	// arrived completes even if the sender has since failed (ULFM raises
	// an error only for operations the failure makes impossible). The
	// post-then-check order also closes the race with a concurrent failure
	// or revocation — the fault layer poisons pending receives it finds in
	// the mailbox, so a fault that slipped between the two steps is caught
	// by the re-check, which cancels and poisons our own receive.
	c.rs.box.post(p)
	if err := c.opError(srcWorld, "recv src", src, tag); err != nil {
		if removed, n, idx := c.rs.box.cancel(p); removed {
			// Notify-then-complete, as in the matcher: post to any
			// attached set, then publish the poison. (cancel already
			// claimed the receive.)
			if n != nil {
				n.post(idx)
			}
			p.poison(err)
		}
	}
}

// Isend starts a nonblocking send of the elements of buf selected by l to
// dst with the given tag. The data leaves buf before Isend returns, so buf
// may be reused immediately — buffered-send semantics. A contiguous layout
// takes the zero-copy fast path: the payload is a subslice of buf, read
// exactly once inside the posting call — scattered straight into a waiting
// receiver's buffer (one copy end to end), or detached into a pooled wire
// if no receive is posted yet. Non-contiguous layouts gather into a wire
// drawn from the world's size-bucketed pool, returned after the unpack.
func Isend[T any](c *Comm, buf []T, l datatype.Layout, dst, tag int) (*Request, error) {
	if err := l.Validate(len(buf)); err != nil {
		return nil, err
	}
	if err := c.checkRank(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	et := elemTypeOf[T]()
	if off, n, ok := l.Contiguous(); ok {
		c.rs.met.countSendPath(true, false)
		return sendRequest(c, isendRawTag(c, buf[off:off+n:off+n], et, dst, int64(tag), detachWire, nil)), nil
	}
	wire, pooled := getWire[T](c.w, l.Size())
	datatype.Gather(wire, buf, l)
	c.rs.met.countSendPath(false, pooled)
	return sendRequest(c, isendRawTag(c, wire, et, dst, int64(tag), nil, releaseWire)), nil
}

// IsendComposite starts a nonblocking send of the elements selected by comp
// across the buffers bufs (indexed by the composite's buffer selectors).
// This is the sender side of one schedule round (Listing 5 of the paper).
// Like Isend, a composite that collapses to one contiguous extent goes out
// zero-copy; anything else is gathered into a pooled wire.
func IsendComposite[T any](c *Comm, bufs [][]T, comp *datatype.Composite, dst, tag int) (*Request, error) {
	if err := c.checkRank(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	et := elemTypeOf[T]()
	if bi, off, n, ok := comp.Contiguous(); ok && bi < len(bufs) {
		c.rs.met.countSendPath(true, false)
		return sendRequest(c, isendRawTag(c, bufs[bi][off:off+n:off+n], et, dst, int64(tag), detachWire, nil)), nil
	}
	wire, pooled := getWire[T](c.w, comp.Size())
	datatype.GatherComposite(wire, bufs, comp)
	c.rs.met.countSendPath(false, pooled)
	return sendRequest(c, isendRawTag(c, wire, et, dst, int64(tag), nil, releaseWire)), nil
}

// Irecv starts a nonblocking receive into the elements of buf selected by
// l. src may be AnySource and tag AnyTag.
func Irecv[T any](c *Comm, buf []T, l datatype.Layout, src, tag int) (*Request, error) {
	if err := l.Validate(len(buf)); err != nil {
		return nil, err
	}
	r := new(Request)
	if err := PostRecv(r, c, newLayoutScatter(buf, l), src, tag, false); err != nil {
		return nil, err
	}
	return r, nil
}

// IrecvComposite starts a nonblocking receive scattered through comp across
// the buffers bufs — the receiver side of one schedule round. deferScatter
// selects when the payload lands in the buffers: false scatters at match
// time (single-copy fast path — safe only while nothing else touches the
// target extents between post and Wait, the receiver's own send-side
// gathers included); true defers the scatter to Wait, in the receiver's
// goroutine, which tolerates receive targets overlapping same-phase send
// sources at the price of messages staging through a pooled wire. Schedule
// executors choose per phase from compile-time overlap analysis, and post
// through PostRecv with a scatter compiled once per round.
func IrecvComposite[T any](c *Comm, bufs [][]T, comp *datatype.Composite, src, tag int, deferScatter bool) (*Request, error) {
	r := new(Request)
	if err := PostRecv(r, c, NewCompositeScatter(bufs, comp), src, tag, deferScatter); err != nil {
		return nil, err
	}
	return r, nil
}

// Send is the blocking form of Isend.
func Send[T any](c *Comm, buf []T, l datatype.Layout, dst, tag int) error {
	req, err := Isend(c, buf, l, dst, tag)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// Recv is the blocking form of Irecv.
func Recv[T any](c *Comm, buf []T, l datatype.Layout, src, tag int) (Status, error) {
	req, err := Irecv(c, buf, l, src, tag)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// SendSlice sends all of buf contiguously.
func SendSlice[T any](c *Comm, buf []T, dst, tag int) error {
	return Send(c, buf, datatype.Contiguous(0, len(buf)), dst, tag)
}

// RecvSlice receives exactly len(buf) elements contiguously into buf.
func RecvSlice[T any](c *Comm, buf []T, src, tag int) (Status, error) {
	return Recv(c, buf, datatype.Contiguous(0, len(buf)), src, tag)
}

// Sendrecv performs a combined send and receive, the deadlock-free exchange
// primitive of the trivial Cartesian algorithms (Listing 4 of the paper).
// The receive is posted before the send; both complete before return.
func Sendrecv[T any](c *Comm, sendBuf []T, sl datatype.Layout, dst, sendTag int,
	recvBuf []T, rl datatype.Layout, src, recvTag int) (Status, error) {
	rreq, err := Irecv(c, recvBuf, rl, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	sreq, err := Isend(c, sendBuf, sl, dst, sendTag)
	if err != nil {
		return Status{}, err
	}
	if _, err := sreq.Wait(); err != nil {
		return Status{}, err
	}
	return rreq.Wait()
}

// Iprobe checks nonblockingly for a matching incoming message and returns
// its envelope if one has arrived. A fully-specified (src, tag) probe is an
// O(1) index lookup however deep the unexpected queue is.
func Iprobe(c *Comm, src, tag int) (found bool, st Status, err error) {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return false, Status{}, err
		}
	}
	found, msgSrc, msgTag, elems := c.rs.box.probe(c.ctx, c.epoch, src, tag)
	if !found {
		return false, Status{}, nil
	}
	return true, Status{Source: msgSrc, Tag: msgTag, Count: elems}, nil
}
