package mpi

import (
	"fmt"
	"strings"
	"testing"

	"cartcc/internal/datatype"
)

// The pooled point-to-point core: receives posted into caller-owned
// requests, messages recycled at their single consumption point, payloads
// carried unboxed, wires pooled as pointer-shaped entries. These tests pin
// the allocation-free round trip and the loud failure of every stale
// handle onto recycled state.

// roundTripComposites returns a gathered (two-part, non-contiguous) and a
// contiguous composite over two 8-element buffers.
func roundTripComposites() (gathered, contiguous *datatype.Composite) {
	gathered = new(datatype.Composite)
	gathered.AppendBlock(0, 1, 2)
	gathered.AppendBlock(1, 5, 3)
	contiguous = new(datatype.Composite)
	contiguous.AppendBlock(0, 2, 4)
	return gathered, contiguous
}

// TestRoundTripAllocFree: a pre-posted PostRecv + IsendComposite + Wait
// round trip on loopback allocates nothing once warm — for the gathered
// (pooled wire) and the zero-copy send path, with match-time and deferred
// scatter.
func TestRoundTripAllocFree(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	run(t, 1, func(c *Comm) error {
		send := [][]int64{make([]int64, 8), make([]int64, 8)}
		recv := [][]int64{make([]int64, 8), make([]int64, 8)}
		for i := range send[0] {
			send[0][i], send[1][i] = int64(i+1), int64(10*(i+1))
		}
		gathered, contiguous := roundTripComposites()
		var req Request
		for _, tc := range []struct {
			name     string
			comp     *datatype.Composite
			deferred bool
		}{
			{"gathered", gathered, false},
			{"gathered-deferred", gathered, true},
			{"zerocopy", contiguous, false},
			{"zerocopy-deferred", contiguous, true},
		} {
			scat := NewCompositeScatter(recv, tc.comp)
			var failed error
			trip := func() {
				if err := PostRecv(&req, c, scat, 0, 7, tc.deferred); err != nil {
					failed = err
					return
				}
				sreq, err := IsendComposite(c, send, tc.comp, 0, 7)
				if err == nil {
					_, err = sreq.Wait()
				}
				if err == nil {
					_, err = req.Wait()
				}
				if err != nil {
					failed = err
				}
			}
			trip() // warm the pools
			allocs := testing.AllocsPerRun(200, trip)
			if failed != nil {
				return fmt.Errorf("%s: %w", tc.name, failed)
			}
			if allocs != 0 {
				return fmt.Errorf("%s: round trip allocates %.1f/op, want 0", tc.name, allocs)
			}
			if st := req.status; st.Count != tc.comp.Size() || st.Tag != 7 || st.Source != 0 {
				return fmt.Errorf("%s: status %+v", tc.name, st)
			}
			for _, pl := range tc.comp.Parts() {
				lo, hi := pl.L.Bounds()
				for i := lo; i < hi; i++ {
					if recv[pl.Buf][i] != send[pl.Buf][i] {
						return fmt.Errorf("%s: recv[%d][%d] = %d, want %d", tc.name, pl.Buf, i, recv[pl.Buf][i], send[pl.Buf][i])
					}
				}
			}
		}
		return nil
	})
}

// TestWirePoolReleaseAllocFree: returning a wire to the pool stores a
// pointer-shaped entry, so a get/release cycle allocates nothing — on the
// typed path and on the transport's runtime-typed path alike, which share
// the buckets.
func TestWirePoolReleaseAllocFree(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	w := &World{}
	et := elemTypeOf[float64]()
	var m message
	cycle := func() {
		wire, _ := getWire[float64](w, 100)
		setPayload(&m, wire, et)
		releaseWire(w, &m)
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("typed get/release cycle allocates %.1f/op, want 0", allocs)
	}
	reflectCycle := func() {
		p, c, _ := w.getWireRaw(elemTypeFor(et.rt), 100)
		if p == nil {
			t.Fatal("runtime-typed get missed a warm bucket")
		}
		w.putWire(et, p, c)
	}
	if allocs := testing.AllocsPerRun(1000, reflectCycle); allocs != 0 {
		t.Fatalf("runtime-typed get/release cycle allocates %.1f/op, want 0", allocs)
	}
}

// panicOf runs f and returns its panic message; ok is false when f
// returned normally.
func panicOf(f func()) (msg string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok = fmt.Sprint(r), true
		}
	}()
	f()
	return "", false
}

// mustPanic is panicOf for the test goroutine: no panic fails the test.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	msg, ok := panicOf(f)
	if !ok {
		t.Fatalf("%s: no panic", what)
	}
	return msg
}

// TestStaleHandlesFailLoudly: every way of reaching pooled state through a
// handle that outlived its operation panics instead of silently aliasing
// the operation that reuses the memory.
func TestStaleHandlesFailLoudly(t *testing.T) {
	t.Run("message-ref", func(t *testing.T) {
		m := newMessage()
		ref := refOf(m)
		if ref.get() != m {
			t.Fatal("live reference does not resolve")
		}
		freeMessage(m)
		msg := mustPanic(t, "recycled message through a stale reference", func() { ref.get() })
		if !strings.Contains(msg, "stale message reference") {
			t.Fatalf("panic %q does not name the stale reference", msg)
		}
	})
	t.Run("message-double-release", func(t *testing.T) {
		m := newMessage()
		freeMessage(m)
		mustPanic(t, "second release", func() { freeMessage(m) })
	})
	t.Run("request-reposted-in-flight", func(t *testing.T) {
		run(t, 1, func(c *Comm) error {
			buf := make([]int, 1)
			scat := newLayoutScatter(buf, datatype.Contiguous(0, 1))
			var req Request
			if err := PostRecv(&req, c, scat, 0, 3, false); err != nil {
				return err
			}
			msg, ok := panicOf(func() { _ = PostRecv(&req, c, scat, 0, 3, false) })
			if !ok || !strings.Contains(msg, "in flight") {
				return fmt.Errorf("re-post of an in-flight receive: panic %q (panicked %v), want one naming the in-flight request", msg, ok)
			}
			// The original receive is intact: it still completes.
			if err := SendSlice(c, []int{42}, 0, 3); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil || buf[0] != 42 {
				return fmt.Errorf("original receive after rejected re-post: %v, buf %v", err, buf)
			}
			if _, ok := panicOf(func() { _ = PostRecv(sentRequest, c, scat, 0, 3, false) }); !ok {
				return fmt.Errorf("re-post of the shared send request did not panic")
			}
			return nil
		})
	})
	t.Run("waitset-reposted-request", func(t *testing.T) {
		run(t, 1, func(c *Comm) error {
			buf := make([]int, 1)
			scat := newLayoutScatter(buf, datatype.Contiguous(0, 1))
			var req Request
			if err := PostRecv(&req, c, scat, 0, 4, false); err != nil {
				return err
			}
			s := NewWaitSet(c, 1)
			s.Add(&req, 0)
			if err := SendSlice(c, []int{1}, 0, 4); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			// Re-posting the completed request is legal, but its set still
			// holds the old completion: consuming it must not report the
			// new operation.
			if err := PostRecv(&req, c, scat, 0, 4, false); err != nil {
				return err
			}
			msg, ok := panicOf(func() { _, _ = s.Waitsome() })
			if !ok || !strings.Contains(msg, "re-posted") {
				return fmt.Errorf("stale WaitSet completion: panic %q (panicked %v), want one naming the re-posted request", msg, ok)
			}
			if !req.Cancel() {
				return fmt.Errorf("re-posted receive could not be cancelled")
			}
			return nil
		})
	})
}
