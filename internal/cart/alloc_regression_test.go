package cart

import (
	"fmt"
	"testing"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

// measureAlltoallAllocs benchmarks repeated alltoall executions of a
// compiled plan on a 3x3 torus with the Moore neighborhood and returns
// the allocation profile. All nine ranks execute b.N collectives, so the
// per-op numbers aggregate the whole world.
func measureAlltoallAllocs(t *testing.T, algo Algorithm, m int) testing.BenchmarkResult {
	t.Helper()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		err := mpi.Run(mpi.Config{Procs: 9, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(algo))
			if err != nil {
				return err
			}
			plan, err := AlltoallInit(c, m, algo)
			if err != nil {
				return err
			}
			send := make([]int64, len(nbh)*m)
			recv := make([]int64, len(nbh)*m)
			for i := range send {
				send[i] = int64(w.Rank()*1000 + i)
			}
			for i := 0; i < b.N; i++ {
				if err := Run(plan, send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// checkAllocsFlat asserts that the allocation count per op does not grow
// with the block size: growing m 32-fold may not double the allocs/op.
// Counts are exact per-op averages (setup amortized in), and growth within
// one allocation per op is noise, not scaling — with an allocation-free
// point-to-point core the steady state is a fraction of one alloc/op.
func checkAllocsFlat(t *testing.T, small, large testing.BenchmarkResult) {
	t.Helper()
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.MemAllocs) / float64(r.N) }
	sa, la := perOp(small), perOp(large)
	t.Logf("m=16: %.2f allocs/op %d B/op; m=512: %.2f allocs/op %d B/op",
		sa, small.AllocedBytesPerOp(), la, large.AllocedBytesPerOp())
	if small.MemAllocs == 0 {
		t.Fatal("benchmark measured zero allocations (world setup allocates); harness broken")
	}
	if la > sa*2 && la-sa > 1 {
		t.Errorf("allocs/op scaled with block size: m=16 -> %.2f, m=512 -> %.2f (> 2x)", sa, la)
	}
	// Payload bytes grow 32x; pooled wires and zero-copy payloads must keep
	// allocated bytes far below proportional growth. Not under the race
	// detector, whose sync.Pool drops entries at random: every dropped wire
	// is re-made at full block size, so bytes then track the pool's drop
	// rate, not the runtime.
	sb, lb := small.AllocedBytesPerOp(), large.AllocedBytesPerOp()
	if !raceBuild && sb > 0 && lb > sb*16 {
		t.Errorf("B/op scaled near-linearly with block size: m=16 -> %d, m=512 -> %d", sb, lb)
	}
}

// TestAlltoallAllocsSizeIndependent is the PR's allocation regression
// gate: with the zero-copy fast path and pooled wire buffers, the number
// of heap allocations per collective must not scale with the block size —
// growing m 32-fold may not even double the allocs/op. Before pooling,
// every message gathered into a fresh wire and every receive staged
// through another, so allocs/op grew with message count x size class and
// B/op grew linearly in m.
func TestAlltoallAllocsSizeIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	for _, algo := range []Algorithm{Trivial, Combining} {
		algo := algo
		t.Run(algoName(algo), func(t *testing.T) {
			small := measureAlltoallAllocs(t, algo, 16)
			large := measureAlltoallAllocs(t, algo, 512)
			checkAllocsFlat(t, small, large)
		})
	}
}

// measureAllgatherAllocs is measureAlltoallAllocs for the allgather
// family, exercising the routing-tree schedule (and its pipelined
// execution) instead of the per-block alltoall paths.
func measureAllgatherAllocs(t *testing.T, algo Algorithm, m int) testing.BenchmarkResult {
	t.Helper()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		err := mpi.Run(mpi.Config{Procs: 9, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(algo))
			if err != nil {
				return err
			}
			plan, err := AllgatherInit(c, m, algo)
			if err != nil {
				return err
			}
			send := make([]int64, m)
			recv := make([]int64, len(nbh)*m)
			for i := range send {
				send[i] = int64(w.Rank()*1000 + i)
			}
			for i := 0; i < b.N; i++ {
				if err := Run(plan, send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// TestAllgatherAllocsSizeIndependent extends the allocation gate to the
// combining allgather: the pipelined executor's plan-owned scratch
// (pipeState, WaitSet) must keep allocs/op flat in the block size, same
// bound as the alltoall gate.
func TestAllgatherAllocsSizeIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	for _, algo := range []Algorithm{Trivial, Combining} {
		algo := algo
		t.Run(algoName(algo), func(t *testing.T) {
			small := measureAllgatherAllocs(t, algo, 16)
			large := measureAllgatherAllocs(t, algo, 512)
			checkAllocsFlat(t, small, large)
		})
	}
}

// measureLoggedAlltoallAllocs is measureAlltoallAllocs with a RoundLog
// attached to the plan: SetRoundLog reserves the full per-execution event
// capacity and Run resets the log in place each epoch, so logging must
// not add per-operation allocations.
func measureLoggedAlltoallAllocs(t *testing.T, m int) testing.BenchmarkResult {
	t.Helper()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		err := mpi.Run(mpi.Config{Procs: 9, Timeout: 60 * time.Second}, func(w *mpi.Comm) error {
			nbh, err := vec.Stencil(2, 3, -1)
			if err != nil {
				return err
			}
			c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil, WithAlgorithm(Combining))
			if err != nil {
				return err
			}
			plan, err := AlltoallInit(c, m, Combining)
			if err != nil {
				return err
			}
			log := trace.NewRoundLog()
			plan.SetRoundLog(log)
			send := make([]int64, len(nbh)*m)
			recv := make([]int64, len(nbh)*m)
			for i := 0; i < b.N; i++ {
				if err := Run(plan, send, recv); err != nil {
					return err
				}
				if len(log.Events()) == 0 {
					return fmt.Errorf("logged run recorded no round events")
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// TestLoggedRunStaysAllocationFree is the RoundLog-reuse regression gate:
// before the Reserve/Reset-per-epoch fix, an attached log grew without
// bound across executions (every Run appended a fresh epoch of events)
// and each growth step reallocated the backing array. With the fix, a
// logged re-execution allocates no more than an unlogged one.
func TestLoggedRunStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	const m = 16
	plain := measureAlltoallAllocs(t, Combining, m)
	logged := measureLoggedAlltoallAllocs(t, m)
	pa, la := plain.AllocsPerOp(), logged.AllocsPerOp()
	t.Logf("plain: %d allocs/op %d B/op; logged: %d allocs/op %d B/op",
		pa, plain.AllocedBytesPerOp(), la, logged.AllocedBytesPerOp())
	// Identical budget modulo benchmark jitter: the reserved log adds no
	// steady-state allocations.
	slack := pa / 4
	if slack < 4 {
		slack = 4
	}
	if la > pa+slack {
		t.Errorf("round logging allocates per operation: %d allocs/op logged vs %d plain", la, pa)
	}
}

// TestRepeatInitIsCacheHit is the plan-cache allocation gate: after one
// warm-up *Init, every further identical *Init must bind from the shared
// plan cache — no schedule recompilation, no DAG rebuild. The hit path is
// a key probe plus one Plan bind plus the geometry closures: a fixed
// handful of small allocations, orders of magnitude below a compile
// (thousands of allocs on this stencil, per BENCH_P2). Only rank 0
// measures, bracketed by barriers; the peers sit blocked and the world is
// created with the watchdog and deadlock monitor off so no background
// goroutine allocates into the measurement.
func TestRepeatInitIsCacheHit(t *testing.T) {
	ResetPlanCache()
	t.Cleanup(ResetPlanCache)
	err := mpi.Run(mpi.Config{
		Procs:        9,
		Timeout:      -1,
		DeadlockPoll: -1,
	}, func(w *mpi.Comm) error {
		nbh, err := vec.Stencil(2, 3, -1)
		if err != nil {
			return err
		}
		c, err := NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
		if err != nil {
			return err
		}
		// Warm-up: compile and publish both Auto legs for this rank.
		if _, err := AlltoallInit(c, 32, Auto); err != nil {
			return err
		}
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		if w.Rank() == 0 {
			before := SnapshotPlanCache()
			var initErr error
			var last *Plan
			allocs := testing.AllocsPerRun(100, func() {
				p, err := AlltoallInit(c, 32, Auto)
				if err != nil {
					initErr = err
					return
				}
				last = p
			})
			if initErr != nil {
				return initErr
			}
			if last == nil || !last.FromCache() || !last.alt.FromCache() {
				return fmt.Errorf("measured Inits did not bind from cache")
			}
			after := SnapshotPlanCache()
			if after.Hits <= before.Hits {
				return fmt.Errorf("cart.plancache hits did not increment: %d -> %d", before.Hits, after.Hits)
			}
			if after.Misses != before.Misses {
				return fmt.Errorf("measured Inits recompiled: misses %d -> %d", before.Misses, after.Misses)
			}
			t.Logf("cache-hit *Init (Auto, both legs): %.1f allocs/op; %d hits recorded", allocs, after.Hits-before.Hits)
			// Compiling this plan costs thousands of allocations; the hit
			// path is two binds plus the geometry closures. The bound is
			// deliberately loose against Go-version drift while still
			// catching any reintroduced compile work.
			if allocs > 24 {
				return fmt.Errorf("cache-hit Init allocates like a compile: %.1f allocs/op (want <= 24)", allocs)
			}
		}
		return mpi.Barrier(w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// algoName renders the algorithm for subtest names.
func algoName(a Algorithm) string {
	switch a {
	case Trivial:
		return "trivial"
	case Combining:
		return "combining"
	default:
		return "unknown"
	}
}
