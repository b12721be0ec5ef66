package main

import (
	"fmt"

	"cartcc/internal/cart"
	"cartcc/internal/mpi"
	"cartcc/internal/stencil"
	"cartcc/internal/vec"
)

// The four workloads. Each is a closed loop: a rank starts its next op only
// after its previous one completed (allgather-futures keeps a window of
// two in flight). All run on a periodic torus with the 9-point Moore
// neighborhood and the default Auto algorithm. BENCHMARK.json records why
// each was chosen.
var workloads = []*workload{
	{
		name: "a2a-small", backend: "loopback", dims: []int{4, 4},
		barriered: true, setup: alltoallSetup(1),
	},
	{
		name: "a2a-large-tcp", backend: "tcp", dims: []int{3, 3},
		barriered: true, setup: alltoallSetup(1024),
	},
	{
		name: "allgather-futures", backend: "loopback", dims: []int{3, 3},
		setup: allgatherSetup(256),
	},
	{
		name: "jacobi9", backend: "loopback", dims: []int{2, 2},
		setup: jacobiSetup, prepare: jacobiPrepare,
	},
}

// workload is one benchmark workload.
type workload struct {
	name    string
	backend string // "loopback" (in-process) or "tcp" (force-remote self-world)
	dims    []int  // process torus
	// barriered workloads take their latency samples from a phase with a
	// barrier before every op and ops_per_s from a separate back-to-back
	// phase; the others measure both in one loop.
	barriered bool
	// prepare builds the inputs shared by every world of a run (nil when
	// ranks generate their own).
	prepare func(seed uint64) any
	// setup builds a rank's communicator and plans.
	setup func(rc *rankCtx) (rankBench, error)
}

func (wl *workload) procs() int {
	p := 1
	for _, d := range wl.dims {
		p *= d
	}
	return p
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// rankBench is one rank's instance of a workload.
type rankBench interface {
	// batch runs the next n ops, reporting each op's time inside the
	// library through rc.opDone and counting failed output checks in
	// rc.bad. barrier puts an mpi.Barrier before every op.
	batch(n int, barrier bool) error
	// plans returns the persistent plans the ops execute.
	plans() []*cart.Plan
	// finish hands the rank's final state to the world's checks.
	finish()
}

// moore is the 9-point Moore neighborhood, zero offset included (t=9).
func moore() vec.Neighborhood {
	nbh, err := vec.Stencil(2, 3, -1)
	if err != nil {
		panic(err) // fixed arguments; cannot fail
	}
	return nbh
}

// create times cart.NeighborhoodCreate on the workload's torus.
func (rc *rankCtx) create() (*cart.Comm, error) {
	t0 := now()
	c, err := cart.NeighborhoodCreate(rc.w, rc.world.wl.dims, nil, moore(), nil)
	rc.setupSpan(fnCreate, t0)
	return c, err
}

// ---------------------------------------------------------------------
// a2a-small, a2a-large-tcp: blocking persistent Cart_alltoall.
// ---------------------------------------------------------------------

type alltoallRank struct {
	rc         *rankCtx
	plan       *cart.Plan
	m          int
	send, recv []int64
	srcs, tgts []int
}

func alltoallSetup(m int) func(rc *rankCtx) (rankBench, error) {
	return func(rc *rankCtx) (rankBench, error) {
		c, err := rc.create()
		if err != nil {
			return nil, err
		}
		t0 := now()
		plan, err := cart.AlltoallInit(c, m, cart.Auto)
		rc.setupSpan(fnInit, t0)
		if err != nil {
			return nil, err
		}
		t := c.NeighborCount()
		return &alltoallRank{rc: rc, plan: plan, m: m,
			send: make([]int64, t*m), recv: make([]int64, t*m),
			srcs: c.Sources(), tgts: c.Targets()}, nil
	}
}

func (a *alltoallRank) batch(n int, barrier bool) error {
	rc, me, m := a.rc, a.rc.rank, a.m
	for k := 0; k < n; k++ {
		op := rc.next
		rc.next++
		for j, dst := range a.tgts {
			fillBlock(a.send[j*m:(j+1)*m], blockBase(rc.seed, me, dst, j, op))
		}
		if barrier {
			t0 := now()
			if err := mpi.Barrier(rc.w); err != nil {
				return err
			}
			rc.span(fnBarrier, op, t0, now())
		}
		t0 := now()
		err := cart.Run(a.plan, a.send, a.recv)
		t1 := now()
		if err != nil {
			return err
		}
		rc.span(fnRun, op, t0, t1)
		rc.opDone(t0, t1)
		for j, src := range a.srcs {
			if !blockOK(a.recv[j*m:(j+1)*m], blockBase(rc.seed, src, me, j, op)) {
				rc.bad++
				break
			}
		}
	}
	return nil
}

func (a *alltoallRank) plans() []*cart.Plan { return []*cart.Plan{a.plan} }
func (a *alltoallRank) finish()             {}

// ---------------------------------------------------------------------
// allgather-futures: nonblocking Cart_allgather, two plans in flight.
// ---------------------------------------------------------------------

type allgatherRank struct {
	rc      *rankCtx
	pl      [2]*cart.Plan
	m       int
	send    [2][]float64
	recv    [2][]float64
	fut     [2]*cart.Future
	started [2]int64 // start time of the op in each slot
	srcs    []int
}

func allgatherSetup(m int) func(rc *rankCtx) (rankBench, error) {
	return func(rc *rankCtx) (rankBench, error) {
		c, err := rc.create()
		if err != nil {
			return nil, err
		}
		a := &allgatherRank{rc: rc, m: m, srcs: c.Sources()}
		t0 := now()
		for s := range a.pl {
			if a.pl[s], err = cart.AllgatherInit(c, m, cart.Auto); err != nil {
				rc.setupSpan(fnInit, t0)
				return nil, err
			}
			a.send[s] = make([]float64, m)
			a.recv[s] = make([]float64, c.NeighborCount()*m)
		}
		rc.setupSpan(fnInit, t0)
		return a, nil
	}
}

// start commits op into slot op%2.
func (a *allgatherRank) start(op int) error {
	rc, s := a.rc, op%2
	fillBlock(a.send[s], blockBase(rc.seed, rc.rank, 0, 0, op))
	t0 := now()
	f, err := cart.Start(a.pl[s], a.send[s], a.recv[s])
	rc.span(fnStart, op, t0, now())
	a.fut[s], a.started[s] = f, t0
	return err
}

// batch keeps two ops in flight: op k+1 is started before op k is waited
// on. The window drains at the end of the batch.
func (a *allgatherRank) batch(n int, barrier bool) error {
	rc, m := a.rc, a.m
	first := rc.next
	rc.next += n
	if err := a.start(first); err != nil {
		return err
	}
	for op := first; op < first+n; op++ {
		if op+1 < first+n {
			if err := a.start(op + 1); err != nil {
				return err
			}
		}
		s := op % 2
		t0 := now()
		err := a.fut[s].Wait()
		t1 := now()
		if err != nil {
			return err
		}
		rc.span(fnWait, op, t0, t1)
		rc.opDone(a.started[s], t1)
		for j, src := range a.srcs {
			if !blockOK(a.recv[s][j*m:(j+1)*m], blockBase(rc.seed, src, 0, 0, op)) {
				rc.bad++
				break
			}
		}
	}
	return nil
}

func (a *allgatherRank) plans() []*cart.Plan { return a.pl[:] }
func (a *allgatherRank) finish()             {}

// ---------------------------------------------------------------------
// jacobi9: 1024² Jacobi 9-point solver over 2×2 ranks.
// ---------------------------------------------------------------------

const jacobiN = 1024 // global grid edge

type jacobiRank struct {
	rc       *rankCtx
	ex       *stencil.Exchanger2D
	cur, nxt *stencil.Grid2D[float64]
}

// jacobiPrepare generates the global initial field once per run.
func jacobiPrepare(seed uint64) any { return initialField(seed, jacobiN, jacobiN) }

// jacobiLocal returns the rank's block edge and origin in the global field.
func jacobiLocal(wl *workload, rank int) (nx, ny, r0, c0 int) {
	nx, ny = jacobiN/wl.dims[0], jacobiN/wl.dims[1]
	return nx, ny, (rank / wl.dims[1]) * nx, (rank % wl.dims[1]) * ny
}

func jacobiSetup(rc *rankCtx) (rankBench, error) {
	wr := rc.world
	g := wr.grids[rc.rank]
	t0 := now()
	ex, err := stencil.NewExchanger2D(rc.w, wr.wl.dims, g[0], true, cart.Auto)
	rc.setupSpan(fnInit, t0)
	if err != nil {
		return nil, err
	}
	if !ex.Comm().IsPeriodic() {
		return nil, fmt.Errorf("jacobi9: exchanger torus is not periodic")
	}
	return &jacobiRank{rc: rc, ex: ex, cur: g[0], nxt: g[1]}, nil
}

func (j *jacobiRank) batch(n int, barrier bool) error {
	rc := j.rc
	for k := 0; k < n; k++ {
		op := rc.next
		rc.next++
		t0 := now()
		if err := stencil.ExchangeGrid2D(j.ex, j.cur); err != nil {
			return err
		}
		t1 := now()
		stencil.Jacobi9(j.nxt, j.cur)
		t2 := now()
		rc.span(fnExchange, op, t0, t1)
		rc.span(fnKernel, op, t1, t2)
		rc.opDone(t0, t2)
		j.cur, j.nxt = j.nxt, j.cur
	}
	return nil
}

func (j *jacobiRank) plans() []*cart.Plan { return []*cart.Plan{j.ex.Plan()} }

// finish leaves the final field where the world's check reads it; the
// field is compared with the single-rank baseline after the world ends.
func (j *jacobiRank) finish() { j.rc.world.grids[j.rc.rank][0] = j.cur }
