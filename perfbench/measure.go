package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/metrics"
	"cartcc/internal/mpi"
	"cartcc/internal/stats"
	"cartcc/internal/stencil"
	"cartcc/internal/trace"
)

// Measurement. One op's latency is the maximum, over ranks, of the rank's
// time inside the op (from the call that starts it to the return of the
// call that completes it). A world runs its ops in batches: rank 0 decides
// each batch's size and whether the phase's time is up, and publishes it
// through the world's gate outside the timed ops, so every rank runs the
// same op sequence and the per-rank samples line up by op index.

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// Cold set-ups. setup_s is the median of setupReps of them; setupWarm
// more run first, unrecorded, so one-time process costs (code paging,
// first-use allocations in the runtime) are not counted. The set-ups are
// spread setupGap apart: on a shared machine the interference a set-up
// meets changes over a fraction of a second, and a median over back-to-
// back set-ups moved with it by up to a factor of two between runs, where
// a median over set-ups spread across two seconds moved by a tenth to a
// quarter (most where the first op is CPU-bound, as on jacobi9). Each
// set-up starts from a collected heap with the collector paused, as a
// fresh process starts: the first megabytes it allocates run without a
// collection, so a collection triggered by the previous set-up's garbage
// is not charged to this one.
const (
	setupReps = 41
	setupWarm = 3
	setupGap  = 40 * time.Millisecond
)

// maxOpsPerSecond sizes the latency sample array; a phase that fills it
// ends early. The fastest workload runs below 10000 ops per second.
const maxOpsPerSecond = 20000

// batchTarget is the wall time rank 0 aims each batch at; the control
// messages between batches then cost well under 1% of a phase.
const batchTarget = 50 * time.Millisecond

type runOpts struct {
	seed      uint64
	budget    time.Duration
	traceFile string // Chrome trace of the traced world ("" untraced)
}

// variant selects how a measured world is built.
type variant struct {
	backend   string // overrides the workload's backend when set
	flightCap int    // mpi.Config.FlightCap
	traced    bool   // metrics registry, caller-supplied flight recorder, layer spans
	// latencyOnly skips the back-to-back phase of barriered workloads.
	latencyOnly bool
}

// phase is one kind of measured stretch of a world. A world runs its
// phases as segments: barriered workloads alternate latency and throughput
// segments, so both phases sample the whole run rather than one half each.
type phase struct {
	barrier bool // barrier before every op
	keepLat bool // keep the per-op latency samples
	tput    bool // this phase gives ops_per_s and the allocation counts

	// Filled on rank 0.
	size               int // next batch size
	ops                int64
	rates              []float64 // ops per second of each batch
	allocB, allocCount uint64
}

// worldRun is one world of a run and everything its ranks report.
type worldRun struct {
	wl         *workload
	opts       runOpts
	v          variant
	setupOnly  bool          // cold set-up: spawn, create, init, first op, return
	connectBar bool          // time a first mpi.Barrier before NeighborhoodCreate
	dur        time.Duration // measured time, warm-up excluded
	phases     []*phase
	segments   []segment
	input      any                           // workload.prepare's result
	grids      [][2]*stencil.Grid2D[float64] // jacobi9 per-rank grids
	reg        *metrics.Registry
	flight     *trace.FlightRecorder
	t0         int64
	ranks      []*rankCtx
	gate       gate
	// samples holds the kept ops' latencies in op order: each rank folds
	// its time inside op i into samples[i] with an atomic max. One shared
	// array, sized by the world's duration alone, keeps the live heap, and
	// with it the collector's pace, small and independent of the rank
	// count and of the rate a run happens to reach. Rank 0 allocates it
	// after the warm-up and counts the samples kept in nsamp.
	samples []atomic.Int64
	nsamp   int
	plainNs float64 // jacobi9: the single-rank baseline's time per iteration
}

// rankCtx is one rank's state in a world.
type rankCtx struct {
	world *worldRun
	w     *mpi.Comm
	rank  int
	seed  uint64
	next  int   // index of the next op (ops count from 1)
	keep  bool  // the current phase keeps latency samples
	nsamp int   // index of this rank's next sample
	bad   int64 // ops whose output failed the check
	tr    *rankTracer
	stats []cart.ExecStats
	dec   cart.Decision
	// Set-up timestamps relative to the world's start, and durations.
	spawnNs, doneNs             int64
	connectNs, createNs, initNs int64
	// Per-op layer counters read from the rank's own metric set around
	// each measured batch.
	ctr     []*metrics.Counter
	ctrSum  []int64
	ctrOps  int64
	retireH *metrics.Histogram
	retire  [2]int64 // cart.retire.ns histogram sum and count deltas
}

// counterNames are the registry counters the traced run reads per op.
var counterNames = []string{
	"mpi.sends.posted", "mpi.sends.zerocopy", "mpi.sends.gathered", "mpi.send.bytes",
	"mpi.recvs.completed", "mpi.recv.detached", "mpi.wirepool.hit", "mpi.wirepool.miss",
	"mpi.wait.blocks", "mpi.wait.blocked_ns",
}

func (rc *rankCtx) span(f fnID, op int, start, end int64) {
	if rc.tr != nil {
		rc.tr.span(f, op, start, end)
	}
}

func (rc *rankCtx) setupSpan(f fnID, start int64) {
	end := now()
	switch f {
	case fnCreate:
		rc.createNs = end - start
	case fnInit:
		rc.initNs = end - start
	case fnConnect:
		rc.connectNs = end - start
	}
	if rc.tr != nil {
		rc.tr.setup(f, start, end)
	}
}

// opDone records one op's time inside the library.
func (rc *rankCtx) opDone(start, end int64) {
	if rc.keep {
		s := &rc.world.samples[rc.nsamp]
		rc.nsamp++
		for d := end - start; ; {
			old := s.Load()
			if d <= old || s.CompareAndSwap(old, d) {
				break
			}
		}
	}
	if rc.tr != nil {
		rc.tr.op(start, end)
	}
}

// readCounters adds sign × the rank's current counter values to ctrSum.
func (rc *rankCtx) readCounters(sign int64) {
	for i, c := range rc.ctr {
		rc.ctrSum[i] += sign * c.Load()
	}
	rc.retire[0] += sign * rc.retireH.Sum()
	rc.retire[1] += sign * rc.retireH.Count()
}

// backend returns the world's transport backend.
func (wr *worldRun) backend() string {
	if wr.v.backend != "" {
		return wr.v.backend
	}
	return wr.wl.backend
}

// run spawns the world and waits for it.
func (wr *worldRun) run() error {
	p := wr.wl.procs()
	wr.ranks = make([]*rankCtx, p)
	cfg := mpi.Config{Procs: p, FlightCap: wr.v.flightCap}
	if wr.v.traced {
		wr.reg = metrics.NewRegistry(p)
		wr.flight = trace.NewFlightRecorder(p, 0)
		cfg.Metrics, cfg.Flight = wr.reg, wr.flight
	}
	wr.t0 = now()
	f := func(w *mpi.Comm) error { return wr.rankMain(w) }
	if wr.backend() == "loopback" {
		return mpi.Run(cfg, f)
	}
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	return mpi.RunTransport(cfg, mpi.TransportConfig{
		Network:     wr.backend(),
		Procs:       []mpi.ProcSpec{{Addr: "127.0.0.1:0", Ranks: ranks}},
		ForceRemote: true,
	}, f)
}

func (wr *worldRun) rankMain(w *mpi.Comm) error {
	done := false
	defer func() {
		if !done { // an error or a panic: release the peers waiting at the gate
			wr.gate.abort()
		}
	}()
	rc := &rankCtx{world: wr, w: w, rank: w.Rank(), seed: wr.opts.seed, next: 1}
	rc.spawnNs = now() - wr.t0
	wr.ranks[rc.rank] = rc
	if wr.v.traced {
		rc.tr = newRankTracer()
		rc.tr.setup(fnSpawn, wr.t0, wr.t0+rc.spawnNs)
	}
	if wr.connectBar {
		t0 := now()
		if err := mpi.Barrier(w); err != nil {
			return err
		}
		rc.setupSpan(fnConnect, t0)
	}
	rb, err := wr.wl.setup(rc)
	if err != nil {
		return err
	}
	if err := rb.batch(1, false); err != nil {
		return err
	}
	rc.doneNs = now() - wr.t0
	if !wr.setupOnly {
		if err := rc.measure(rb); err != nil {
			return err
		}
	}
	for _, p := range rb.plans() {
		rc.stats = append(rc.stats, p.Stats())
		if d, ok := p.Decision(); ok {
			rc.dec = d
		}
	}
	rb.finish()
	done = true
	return nil
}

// measure runs the warm-up and the world's phases on one rank.
func (rc *rankCtx) measure(rb rankBench) error {
	wr := rc.world
	warm := &phase{barrier: wr.wl.barriered}
	if err := rc.runPhase(rb, warm, min(time.Second, wr.dur/10)); err != nil {
		return err
	}
	// The gate publishes the sample array to the other ranks.
	if rc.rank == 0 {
		wr.samples = make([]atomic.Int64, int(wr.dur.Seconds()*maxOpsPerSecond)+1024)
	}
	if _, err := wr.gate.wait(0); err != nil {
		return err
	}
	if rc.tr != nil {
		rc.tr.on = true
		rc.ctr = make([]*metrics.Counter, len(counterNames))
		set := wr.reg.Rank(rc.rank)
		for i, n := range counterNames {
			rc.ctr[i] = set.Counter(n)
		}
		rc.ctrSum = make([]int64, len(counterNames))
		rc.retireH = set.Histogram("cart.retire.ns")
	}
	for _, sg := range wr.segments {
		if err := rc.runPhase(rb, sg.ph, sg.dur); err != nil {
			return err
		}
	}
	return nil
}

// runPhase runs batches of ph until rank 0 has spent dur in them. Rank 0
// times each batch between two passes of the gate and reads the heap
// counters around the whole segment.
func (rc *rankCtx) runPhase(rb rankBench, ph *phase, dur time.Duration) error {
	wr := rc.world
	root := rc.rank == 0
	var spent time.Duration
	var ms0 runtime.MemStats
	if root && ph.tput {
		runtime.ReadMemStats(&ms0)
	}
	rc.keep = ph.keepLat
	defer func() { rc.keep = false }()
	for {
		size := 0
		if root && spent < dur {
			size = max(ph.size, 2)
			if ph.keepLat {
				size = min(size, len(wr.samples)-wr.nsamp)
			}
		}
		n, err := wr.gate.wait(size)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		start := time.Now()
		countOps := ph.tput && rc.ctr != nil
		if countOps {
			rc.readCounters(-1)
		}
		if err := rb.batch(n, ph.barrier); err != nil {
			return err
		}
		if countOps {
			rc.readCounters(1)
			rc.ctrOps += int64(n)
		}
		if _, err := wr.gate.wait(0); err != nil {
			return err
		}
		if root {
			d := time.Since(start)
			spent += d
			ph.ops += int64(n)
			if ph.tput {
				ph.rates = append(ph.rates, float64(n)/d.Seconds())
			}
			if ph.keepLat {
				wr.nsamp += n
			}
			ph.size = int(float64(batchTarget) / float64(d) * float64(n))
			ph.size = max(1, min(ph.size, 2*n+1))
		}
	}
	if root && ph.tput {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		ph.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		ph.allocCount += ms1.Mallocs - ms0.Mallocs
	}
	return nil
}

// gate is the batch control: a reusable barrier for a world's rank
// goroutines that also carries rank 0's next batch size. It works beside
// the library, not through it, so the control between batches sends no
// messages and allocates nothing, and the allocation counts cover the ops
// alone (with mpi.Bcast and mpi.Barrier as the control, they added a fifth
// to jacobi9's count, varying with the batch sizes).
type gate struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	gen     uint64
	size    int    // rank 0's size for the pass in progress
	sizes   [2]int // the size each completed pass published, by gen parity
	aborted bool   // a rank failed and will not arrive again
}

var errGateAborted = errors.New("another rank failed")

func (g *gate) init(parties int) {
	g.parties = parties
	g.cond.L = &g.mu
}

// wait blocks until every rank has arrived and returns the size rank 0
// passed; the other ranks pass 0. A pass's published size stays readable
// until the pass after next completes, which cannot happen before every
// waiter of this pass has returned.
func (g *gate) wait(size int) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.size += size
	g.arrived++
	if g.arrived == g.parties {
		g.sizes[gen%2] = g.size
		g.arrived, g.size = 0, 0
		g.gen++
		g.cond.Broadcast()
	}
	for g.gen == gen && !g.aborted {
		g.cond.Wait()
	}
	if g.gen == gen {
		return 0, errGateAborted
	}
	return g.sizes[gen%2], nil
}

// abort releases every waiter, now and later, with an error: a rank that
// failed never arrives, and its peers must return so the world can end.
func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// newWorld prepares a world of the workload.
func newWorld(wl *workload, opts runOpts, input any, v variant) *worldRun {
	wr := &worldRun{wl: wl, opts: opts, v: v, input: input}
	wr.gate.init(wl.procs())
	if input != nil {
		field := input.([]float64)
		p := wl.procs()
		wr.grids = make([][2]*stencil.Grid2D[float64], p)
		for r := 0; r < p; r++ {
			nx, ny, r0, c0 := jacobiLocal(wl, r)
			for k := range wr.grids[r] {
				g, err := stencil.NewGrid2D[float64](nx, ny, 1)
				if err != nil {
					panic(err) // fixed, valid shape
				}
				wr.grids[r][k] = g
			}
			// Both grids get the field, so the first sweep writes to memory
			// already faulted in rather than timing the page faults.
			for _, g := range wr.grids[r] {
				for i := 0; i < nx; i++ {
					for j := 0; j < ny; j++ {
						g.Set(i, j, field[(r0+i)*jacobiN+c0+j])
					}
				}
			}
		}
	}
	return wr
}

type segment struct {
	ph  *phase
	dur time.Duration
}

// segmentsPerPhase is the number of latency/throughput segment pairs a
// barriered world alternates through.
var segmentsPerPhase = 10

// addPhases lays out the measured phases over dur.
func (wr *worldRun) addPhases(dur time.Duration) {
	wr.dur = dur
	switch {
	case !wr.wl.barriered:
		ph := &phase{keepLat: true, tput: true}
		wr.phases, wr.segments = []*phase{ph}, []segment{{ph, dur}}
	case wr.v.latencyOnly:
		ph := &phase{barrier: true, keepLat: true}
		wr.phases, wr.segments = []*phase{ph}, []segment{{ph, dur}}
	default:
		lat, tput := &phase{barrier: true, keepLat: true}, &phase{tput: true}
		wr.phases = []*phase{lat, tput}
		for i := 0; i < segmentsPerPhase; i++ {
			d := dur / time.Duration(2*segmentsPerPhase)
			wr.segments = append(wr.segments, segment{lat, d}, segment{tput, d})
		}
	}
	for _, ph := range wr.phases {
		if ph.tput {
			ph.rates = make([]float64, 0, 4096)
		}
	}
}

// opLatencies returns the kept ops' latencies, in op order.
func (wr *worldRun) opLatencies() ([]float64, error) {
	out := make([]float64, wr.nsamp)
	for i := range out {
		out[i] = float64(wr.samples[i].Load())
	}
	for _, rc := range wr.ranks {
		if rc.nsamp != wr.nsamp {
			return nil, fmt.Errorf("rank %d kept %d samples, rank 0 %d", rc.rank, rc.nsamp, wr.nsamp)
		}
	}
	return out, nil
}

// Windows. On a shared machine, interference comes in bursts: for a few
// hundred milliseconds at a time ops stall for 5-20 ms while the machine
// runs other guests, so over all of a run's samples the median moved by a
// fifth from run to run, and the 99th percentile by a factor of two, with
// the share of the run the bursts happened to cover. Each latency
// quantile is therefore taken per window of consecutive ops, and the
// reported value is the lower quartile over the windows: the quantile of
// the quieter quarter of the run. A window holds at least ten samples
// beyond its quantile (1000 ops for the 99th percentile), and a run is cut
// into at most maxWindows windows; a run too short for two windows reports
// the plain quantile. ops_per_s is likewise taken from the batches' rates,
// as their 90th percentile (the back-to-back phase, without a barrier per
// op, is the more disturbed of the two).
const maxWindows = 20

// windowed returns the lower quartile over windows of lat of each
// window's q-quantile.
func windowed(lat []float64, q float64) float64 {
	k := max(1, min(maxWindows, int(float64(len(lat))*(1-q)/10)))
	qs := make([]float64, k)
	for w := range qs {
		qs[w] = stats.Quantile(lat[w*len(lat)/k:(w+1)*len(lat)/k], q)
	}
	return stats.Quantile(qs, 0.25)
}

// check verifies a finished world: every rank's outputs, and every plan's
// observed rounds, messages, blocks and elements against its compiled
// schedule (the paper's C and V on a torus). It returns the attempted and
// failed op counts.
func (wr *worldRun) check() (attempted, failed int64, err error) {
	for _, rc := range wr.ranks {
		ops := int64(rc.next - 1)
		attempted = max(attempted, ops)
		failed = max(failed, rc.bad)
		for _, s := range rc.stats {
			if e := s.Check(); e != nil && err == nil {
				err = fmt.Errorf("rank %d: %w", rc.rank, e)
			}
			if !s.Interior() && err == nil {
				err = fmt.Errorf("rank %d: %s plan plans %d rounds/%d blocks, the torus schedule has C=%d V=%d",
					rc.rank, s.Op, s.PlannedRounds, s.PlannedBlocks, s.PredictedRounds, s.PredictedVolume)
			}
		}
	}
	if wr.grids != nil {
		if e := wr.checkField(int(attempted)); e != nil {
			failed = attempted
			if err == nil {
				err = e
			}
		}
	}
	return attempted, failed, err
}

// checkField compares the jacobi9 world's final field with the plain
// single-rank baseline run for the same number of iterations.
func (wr *worldRun) checkField(iters int) error {
	t0 := now()
	want := plainJacobi9(wr.input.([]float64), jacobiN, jacobiN, iters)
	wr.plainNs = float64(now()-t0) / float64(iters)
	for r, g := range wr.grids {
		nx, ny, r0, c0 := jacobiLocal(wr.wl, r)
		if err := compareField(g[0].At, nx, ny, r0, c0, want, jacobiN); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// setupSample is one cold set-up, in ns from before the world spawned.
type setupSample struct {
	total, spawn, connect, create, init float64
	hit, miss                           int64
}

// coldSetups times setupReps cold set-ups: world spawn, NeighborhoodCreate,
// *Init and the first op, each with an empty plan cache. The first op's
// output is checked like every other op's.
func coldSetups(wl *workload, opts runOpts, input any, traced bool) ([]setupSample, int64, int64, error) {
	var out []setupSample
	var attempted, failed int64
	for i := 0; i < setupWarm+setupReps; i++ {
		wr := newWorld(wl, opts, input, variant{traced: traced})
		wr.setupOnly, wr.connectBar = true, traced
		time.Sleep(setupGap)
		cart.ResetPlanCache()
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		err := wr.run()
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, attempted, failed + 1, fmt.Errorf("cold set-up: %w", err)
		}
		a, f, err := wr.check()
		attempted += a
		failed += f
		if err != nil {
			return nil, attempted, failed, fmt.Errorf("cold set-up: %w", err)
		}
		if i < setupWarm {
			continue
		}
		var s setupSample
		for _, rc := range wr.ranks {
			s.total = math.Max(s.total, float64(rc.doneNs))
			s.spawn = math.Max(s.spawn, float64(rc.spawnNs))
			s.connect = math.Max(s.connect, float64(rc.connectNs))
			s.create = math.Max(s.create, float64(rc.createNs))
			s.init = math.Max(s.init, float64(rc.initNs))
		}
		pc := cart.SnapshotPlanCache()
		s.hit, s.miss = pc.Hits, pc.Misses
		out = append(out, s)
	}
	return out, attempted, failed, nil
}

// pick maps f over the set-up samples.
func pick(ss []setupSample, f func(setupSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
