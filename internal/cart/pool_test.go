package cart

import (
	"fmt"
	"runtime"
	"testing"

	"cartcc/internal/mpi"
)

// worldAllocsPerOp runs op ops on every rank of a 16-rank world (after
// warm-up) and returns the world's heap allocations per op, measured by
// rank 0 between two barriers. setup builds the rank's operation.
func worldAllocsPerOp(t *testing.T, ops int, setup func(w *mpi.Comm) (func() error, error)) float64 {
	t.Helper()
	var perOp float64
	runWorld(t, 16, func(w *mpi.Comm) error {
		op, err := setup(w)
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ { // warm the pools and the plan scratch
			if err := op(); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		}
		return nil
	})
	return perOp
}

// TestReexecutionAllocGate is the absolute allocation gate of the pooled
// point-to-point core: re-executing a compiled combining alltoall or
// allgather on a 4x4 Moore torus costs at most one heap allocation per
// rank per op, the whole world included (before the pooled core: about
// 805 per op). The two barriers inside the measured window are counted
// too; amortized over the ops they stay far below the bound.
func TestReexecutionAllocGate(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates; allocation gates run without -race")
	}
	const ranks, ops = 16, 1000
	nbh := mustStencil(t, 2, 3, -1)
	for _, op := range []OpKind{OpAlltoall, OpAllgather} {
		t.Run(op.String(), func(t *testing.T) {
			perOp := worldAllocsPerOp(t, ops, func(w *mpi.Comm) (func() error, error) {
				c, err := NeighborhoodCreate(w, []int{4, 4}, nil, nbh, nil)
				if err != nil {
					return nil, err
				}
				var plan *Plan
				send := make([]int64, len(nbh))
				if op == OpAlltoall {
					plan, err = AlltoallInit(c, 1, Combining)
				} else {
					plan, err = AllgatherInit(c, 1, Combining)
					send = send[:1]
				}
				if err != nil {
					return nil, err
				}
				recv := make([]int64, len(nbh))
				return func() error { return Run(plan, send, recv) }, nil
			})
			t.Logf("%s: %.3f allocs/op across %d ranks", op, perOp, ranks)
			if perOp > ranks {
				t.Fatalf("%s re-execution allocates %.2f/op, gate %d (1 per rank)", op, perOp, ranks)
			}
		})
	}
}

// TestPooledStateHammer drives pooled runtime state from several
// goroutines at once: every rank keeps two allgather futures in flight on
// the progress engine (the allgather-futures shape: the engine worker
// posts, retires and recycles receives, requests and messages) while its
// own goroutine runs a synchronous alltoall on another plan between
// commits. Every payload is checked, so a recycled object aliased across
// operations shows up as corrupt data, and the race detector (CI runs it
// with -race -count=10) sees every pooled hand-off.
func TestPooledStateHammer(t *testing.T) {
	const m, window = 4, 2
	iters := 200
	if testing.Short() {
		iters = 20
	}
	nbh := mustStencil(t, 2, 3, -1)
	runWorld(t, 9, func(w *mpi.Comm) error {
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		ag, err := AllgatherInit(c, m, Combining)
		if err != nil {
			return err
		}
		a2a, err := AlltoallInit(c, m, Combining)
		if err != nil {
			return err
		}
		tn := len(nbh)
		wantG := refAllgather(c.Grid(), nbh, w.Rank(), m)
		wantA := refAlltoall(c.Grid(), nbh, w.Rank(), m)
		type inflight struct {
			f    *Future
			recv []int
			it   int
		}
		var q []inflight
		check := func(fl inflight) error {
			if err := fl.f.Wait(); err != nil {
				return fmt.Errorf("rank %d future %d: %w", w.Rank(), fl.it, err)
			}
			for i, v := range fl.recv {
				if v != wantG[i]+fl.it {
					return fmt.Errorf("rank %d future %d: recv[%d] = %d, want %d", w.Rank(), fl.it, i, v, wantG[i]+fl.it)
				}
			}
			return nil
		}
		sendA := make([]int, tn*m)
		recvA := make([]int, tn*m)
		for it := 0; it < iters; it++ {
			send := make([]int, m)
			for e := range send {
				send[e] = encode(w.Rank(), 0, e) + it
			}
			recv := make([]int, tn*m)
			f, err := Start(ag, send, recv)
			if err != nil {
				return err
			}
			q = append(q, inflight{f, recv, it})
			for i := 0; i < tn; i++ {
				for e := 0; e < m; e++ {
					sendA[i*m+e] = encode(w.Rank(), i, e) + it
				}
			}
			if err := Run(a2a, sendA, recvA); err != nil {
				return fmt.Errorf("rank %d alltoall %d: %w", w.Rank(), it, err)
			}
			for i := range recvA {
				if recvA[i] != wantA[i]+it {
					return fmt.Errorf("rank %d alltoall %d: recv[%d] = %d, want %d", w.Rank(), it, i, recvA[i], wantA[i]+it)
				}
			}
			if len(q) == window {
				if err := check(q[0]); err != nil {
					return err
				}
				q = q[1:]
			}
		}
		for _, fl := range q {
			if err := check(fl); err != nil {
				return err
			}
		}
		return nil
	})
}
