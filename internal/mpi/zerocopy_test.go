package mpi

import (
	"errors"
	"fmt"
	"time"

	"testing"

	"cartcc/internal/datatype"
)

// TestIprobeExactDeepQueue is the indexed-mailbox regression test: a
// fully-specified Iprobe must be an O(1) index lookup even with a 10k-deep
// unexpected queue, while a wildcard probe (the only scanner left) walks
// the queue. The probeScanned hook counts arrived-list entries examined.
func TestIprobeExactDeepQueue(t *testing.T) {
	const depth = 10_000
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			buf := []int{0}
			for i := 0; i < depth; i++ {
				buf[0] = i
				if _, err := Isend(c, buf, datatype.Contiguous(0, 1), 1, 7); err != nil {
					return err
				}
			}
			// Per-sender delivery is sequential, so once this lands the
			// whole queue is in place.
			return SendSlice(c, []int{-1}, 1, 8)
		case 1:
			sync := make([]int, 1)
			if _, err := RecvSlice(c, sync, 0, 8); err != nil {
				return err
			}
			before := probeScanned.Load()
			found, st, err := Iprobe(c, 0, 7)
			if err != nil {
				return err
			}
			if !found || st.Source != 0 || st.Tag != 7 || st.Count != 1 {
				return fmt.Errorf("exact probe: found=%v st=%+v", found, st)
			}
			if scanned := probeScanned.Load() - before; scanned != 0 {
				return fmt.Errorf("exact probe scanned %d entries of a %d-deep queue; want 0", scanned, depth)
			}
			// A wildcard probe for an absent tag is the scanner: it must
			// examine at least the whole live queue, proving the counter
			// observes this code path and the exact path really skipped it.
			before = probeScanned.Load()
			if found, _, _ := Iprobe(c, AnySource, 9999); found {
				return fmt.Errorf("wildcard probe for absent tag found a message")
			}
			if scanned := probeScanned.Load() - before; scanned < depth {
				return fmt.Errorf("wildcard probe scanned %d entries; want >= %d", scanned, depth)
			}
			// Drain in order: non-overtaking must hold across the indexed
			// queue, zero-copy sends, and pooled wires.
			got := make([]int, 1)
			for i := 0; i < depth; i++ {
				if _, err := RecvSlice(c, got, 0, 7); err != nil {
					return err
				}
				if got[0] != i {
					return fmt.Errorf("message %d carries %d: overtaking", i, got[0])
				}
			}
			return nil
		}
		return nil
	})
}

// TestNonOvertakingZeroCopyPooled interleaves contiguous (zero-copy) and
// strided (pooled-wire) sends on one (source, tag) stream and checks the
// receiver sees them in post order with intact contents — including when
// the sender's buffer is clobbered the moment each Isend returns, which is
// exactly what buffered-send semantics permit.
func TestNonOvertakingZeroCopyPooled(t *testing.T) {
	const (
		msgs = 200
		m    = 16
	)
	run(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			buf := make([]int, 2*m)
			for i := 0; i < msgs; i++ {
				var l datatype.Layout
				if i%2 == 0 {
					// Zero-copy fast path: one contiguous extent.
					l = datatype.Contiguous(0, m)
					for j := 0; j < m; j++ {
						buf[j] = i*1000 + j
					}
				} else {
					// Strided: gathers into a pooled wire.
					l = datatype.Vector(m, 1, 2, 0)
					for j := 0; j < m; j++ {
						buf[2*j] = i*1000 + j
					}
				}
				req, err := Isend(c, buf, l, 1, 3)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				// Buffered semantics: the data must already be out.
				for j := range buf {
					buf[j] = -7
				}
			}
			return nil
		case 1:
			got := make([]int, m)
			for i := 0; i < msgs; i++ {
				if i%16 == 0 {
					// Let the queue build up so both pre-posted and
					// unexpected matches are exercised.
					time.Sleep(200 * time.Microsecond)
				}
				if _, err := RecvSlice(c, got, 0, 3); err != nil {
					return err
				}
				for j := 0; j < m; j++ {
					if got[j] != i*1000+j {
						return fmt.Errorf("message %d element %d = %d, want %d", i, j, got[j], i*1000+j)
					}
				}
			}
			return nil
		}
		return nil
	})
}

// TestWildcardExactArbitration pins the matching order between an exact
// receive and a wildcard receive on the same (ctx, tag): whichever was
// posted first must match the first incoming message, exactly as the old
// single-list scan behaved.
func TestWildcardExactArbitration(t *testing.T) {
	for _, wildFirst := range []bool{true, false} {
		name := "exact-first"
		if wildFirst {
			name = "wild-first"
		}
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c *Comm) error {
				switch c.Rank() {
				case 0:
					sync := make([]int, 1)
					if _, err := RecvSlice(c, sync, 1, 1); err != nil {
						return err
					}
					if err := SendSlice(c, []int{111}, 1, 5); err != nil {
						return err
					}
					return SendSlice(c, []int{222}, 1, 5)
				case 1:
					a := make([]int, 1)
					b := make([]int, 1)
					var first, second *Request
					var err error
					if wildFirst {
						first, err = Irecv(c, a, datatype.Contiguous(0, 1), AnySource, 5)
					} else {
						first, err = Irecv(c, a, datatype.Contiguous(0, 1), 0, 5)
					}
					if err != nil {
						return err
					}
					if wildFirst {
						second, err = Irecv(c, b, datatype.Contiguous(0, 1), 0, 5)
					} else {
						second, err = Irecv(c, b, datatype.Contiguous(0, 1), AnySource, 5)
					}
					if err != nil {
						return err
					}
					if err := SendSlice(c, []int{0}, 0, 1); err != nil {
						return err
					}
					if _, err := first.Wait(); err != nil {
						return err
					}
					if _, err := second.Wait(); err != nil {
						return err
					}
					if a[0] != 111 || b[0] != 222 {
						return fmt.Errorf("%s: first recv got %d, second got %d; want 111, 222", name, a[0], b[0])
					}
					return nil
				}
				return nil
			})
		})
	}
}

// TestPoisonedReceiveNeverDoubleRelease exercises the fault path of the
// pooled-wire ownership protocol at the mailbox level: a receive that is
// poisoned (its peer died) gets a fresh poison message with no payload and
// no release hook, and the real message that arrives afterwards queues as
// unexpected with its release intact — invoked exactly once when a later
// receive finally consumes it.
func TestPoisonedReceiveNeverDoubleRelease(t *testing.T) {
	box := &mailbox{}
	released := 0
	m := testMsg(1, 0, 0, 7, []int{1, 2, 3})
	m.release = func(*World, *message) { released++ }

	r1 := &pendingRecv{ctx: 1, src: 0, tag: 7, srcWorld: 0}
	box.post(r1)
	box.poisonMatching(func(p *pendingRecv) error {
		return errors.New("peer died")
	})
	if !r1.done() || r1.fail == nil {
		t.Fatal("poisoned receive did not complete with a failure")
	}
	if r1.held.m != nil {
		t.Fatal("poisoned receive holds a message")
	}
	if released != 0 {
		t.Fatalf("release ran %d times before any message was consumed", released)
	}

	// The real message arrives after the poisoning: no pending receive
	// matches (r1 is gone), so it must queue with its release hook intact.
	box.deliver(m)
	if released != 0 {
		t.Fatalf("release ran %d times while the message sat unexpected", released)
	}

	// A later receive consumes it: release runs exactly once, and the
	// message goes back to the pool.
	r2 := &pendingRecv{ctx: 1, src: 0, tag: 7, srcWorld: 0}
	box.post(r2)
	if !r2.done() || r2.fail != nil {
		t.Fatalf("second receive failed: %v", r2.fail)
	}
	if released != 1 {
		t.Fatalf("release ran %d times; want exactly 1", released)
	}
	if !m.free {
		t.Fatal("consumed message was not recycled")
	}

	// Consuming it again — the double release the hook protocol rules
	// out — must fail loudly, never re-run the hook.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second release of a recycled message did not panic")
			}
		}()
		box.consumed(m)
	}()
	if released != 1 {
		t.Fatalf("release ran %d times after the double release; want exactly 1", released)
	}
}

// TestDetachResolvesZeroCopyAlias checks the other half of the ownership
// protocol: a zero-copy message that queues unexpected is detached — the
// payload stops aliasing the sender's buffer — before deliver returns.
func TestDetachResolvesZeroCopyAlias(t *testing.T) {
	box := &mailbox{}
	user := []int{10, 20, 30}
	detached := 0
	et := elemTypeOf[int]()
	m := testMsg(1, 0, 0, 9, user)
	m.detach = func(_ *World, m *message) {
		detached++
		src, _ := payloadAs[int](m, et)
		wire := make([]int, len(src))
		copy(wire, src)
		setPayload(m, wire, et)
	}
	box.deliver(m)
	if detached != 1 {
		t.Fatalf("detach ran %d times; want 1", detached)
	}
	// Sender reuses its buffer; the queued payload must be unaffected.
	user[0], user[1], user[2] = -1, -1, -1
	r := &pendingRecv{ctx: 1, src: 0, tag: 9, srcWorld: 0}
	var got []int
	r.consume = scatterFunc(func(m *message) error {
		p, _ := payloadAs[int](m, et)
		got = append([]int(nil), p...)
		return nil
	})
	box.post(r)
	if !r.done() || r.consumeErr != nil {
		t.Fatal(r.consumeErr)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("queued zero-copy payload corrupted by sender reuse: %v", got)
	}
}

// TestWirePoolRecycles checks the size-bucketed pool round trip: a
// released wire of a pool-shaped capacity comes back from getWire.
func TestWirePoolRecycles(t *testing.T) {
	w := &World{}
	wire, pooled := getWire[int32](w, 100)
	if len(wire) != 100 || cap(wire) != 128 {
		t.Fatalf("getWire(100) = len %d cap %d; want 100/128", len(wire), cap(wire))
	}
	if pooled {
		t.Fatal("first getWire from an empty pool reported a pool hit")
	}
	m := testMsg(0, 0, 0, 0, wire)
	releaseWire(w, m)
	if m.pay != nil {
		t.Fatal("releaseWire did not clear the payload")
	}
	// Under the race detector sync.Pool drops Puts at random (by design,
	// to shake out reuse races), so a single dropped Put must not strand
	// the loop: re-release the original wire on every attempt and demand
	// a recycle within a bounded number of round trips.
	recycled := false
	for i := 0; i < 100 && !recycled; i++ {
		releaseWire(w, testMsg(0, 0, 0, 0, wire))
		again, hit := getWire[int32](w, 70)
		if cap(again) != 128 {
			t.Fatalf("wire cap %d; want 128", cap(again))
		}
		recycled = &again[0] == &wire[0]
		if recycled && !hit {
			t.Fatal("recycled wire not reported as a pool hit")
		}
	}
	if !recycled {
		t.Fatal("pool never recycled the released wire")
	}
	// Oversized and odd-capacity slices are never pooled.
	big := make([]int32, 1<<wireMaxClass+1)
	releaseWire(w, testMsg(0, 0, 0, 0, big))
	odd := make([]int32, 100) // cap 100: not a power of two
	releaseWire(w, testMsg(0, 0, 0, 0, odd))
}
