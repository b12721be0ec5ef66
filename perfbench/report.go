package main

import (
	"fmt"
	"math"
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/stats"
)

// compareRounds is the number of times the traced run alternates its
// untraced comparison worlds.
const compareRounds = 3

// runWorkload runs one workload and returns its result: the end-to-end
// metrics, or with traced the per-layer metrics.
func runWorkload(wl *workload, opts runOpts, traced bool) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var input any
	if wl.prepare != nil {
		input = wl.prepare(opts.seed)
	}
	setups, a, f, err := coldSetups(wl, opts, input, traced)
	res.Attempted, res.Failed = a, f
	if err != nil {
		return res, err
	}
	// measured runs one world, checks it and adds its op counts.
	measured := func(v variant, dur time.Duration) (*worldRun, []float64, error) {
		wr := newWorld(wl, opts, input, v)
		wr.addPhases(dur)
		err := wr.run()
		if err != nil {
			res.Failed++
			return nil, nil, err
		}
		a, f, err := wr.check()
		res.Attempted += a
		res.Failed += f
		if err != nil {
			return nil, nil, err
		}
		lat, err := wr.opLatencies()
		return wr, lat, err
	}

	if !traced {
		wr, lat, err := measured(variant{}, opts.budget)
		if err != nil {
			return res, err
		}
		printPick(wl, wr, len(lat))
		// The 99th percentile is printed but not reported: on a shared
		// machine its run-to-run spread is wider than any bound a
		// regression gate could use (see windowed).
		fmt.Printf("%s: op_p99_us=%.6g (not gated)\n", wl.name, windowed(lat, 0.99)/1e3)
		tp := wr.tputPhase()
		res.set("op_p50_us", "us", windowed(lat, 0.5)/1e3)
		res.set("ops_per_s", "1/s", stats.Quantile(tp.rates, 0.9))
		res.set("alloc_B_per_op", "B", float64(tp.allocB)/float64(tp.ops))
		res.set("setup_s", "s", stats.Median(pick(setups, func(s setupSample) float64 { return s.total }))/1e9)
		return res, nil
	}

	// The traced run: untraced comparison worlds first, each a quarter of
	// the budget spread over compareRounds alternating worlds, so a change
	// in the machine's load over the run falls on every variant alike; then
	// the traced world.
	q := opts.budget / 4
	variants := []variant{{latencyOnly: true}, {latencyOnly: true, flightCap: -1}}
	if wl.backend != "loopback" {
		variants = append(variants, variant{latencyOnly: true, backend: "loopback"})
	}
	lats := make([][]float64, len(variants))
	for r := 0; r < compareRounds; r++ {
		for i, v := range variants {
			_, lat, err := measured(v, q/compareRounds)
			if err != nil {
				return res, err
			}
			lats[i] = append(lats[i], lat...)
		}
	}
	base := windowed(lats[0], 0.5)
	extraUs := 0.0
	if len(lats) > 2 {
		extraUs = (base - windowed(lats[2], 0.5)) / 1e3
	}
	rest := opts.budget - time.Duration(len(variants))*q
	wr, tlat, err := measured(variant{traced: true}, rest)
	if err != nil {
		return res, err
	}
	printPick(wl, wr, len(tlat))
	if err := writeChrome(opts.traceFile, "perfbench "+wl.name+" (traced world)", wr.ranks); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("%s: spans written to %s\n", wl.name, opts.traceFile)
	err = wr.layerMetrics(&res, setups)
	res.set("transport.extra_us_per_op", "us", extraUs)
	res.set("trace.flight_cost_pct", "%", 100*(base/windowed(lats[1], 0.5)-1))
	res.set("trace.overhead_pct", "%", 100*(windowed(tlat, 0.5)/base-1))
	return res, err
}

// tputPhase returns the phase that measured throughput and allocations.
func (wr *worldRun) tputPhase() *phase {
	for _, ph := range wr.phases {
		if ph.tput {
			return ph
		}
	}
	return wr.phases[0]
}

// printPick prints the workload's Auto pick and crossover, the backend and
// the sample count.
func printPick(wl *workload, wr *worldRun, samples int) {
	d := wr.ranks[0].dec
	cross := "+inf"
	if !math.IsInf(d.CrossoverBytes, 1) {
		cross = fmt.Sprintf("%.0fB", d.CrossoverBytes)
	}
	fmt.Printf("%s: backend=%s ranks=%d torus=%v auto-pick=%s (block %.0fB, crossover %s, profile %s) timed-ops=%d\n",
		wl.name, wr.backend(), wl.procs(), wl.dims, d.Chosen, d.BlockBytes, cross, d.ProfileSource, samples)
}

// layerMetrics computes the per-layer metrics of the traced world and the
// traced set-ups. It fails when the spans do not add up to the op time or
// the observed schedule counts differ from the plans (checked in check).
func (wr *worldRun) layerMetrics(res *result, setups []setupSample) error {
	ranks := wr.ranks
	p := float64(len(ranks))
	var ctr = make([]float64, len(counterNames))
	var ctrOps, retSum, retCnt float64
	for _, rc := range ranks {
		for i, v := range rc.ctrSum {
			ctr[i] += float64(v)
		}
		ctrOps += float64(rc.ctrOps)
		retSum += float64(rc.retire[0])
		retCnt += float64(rc.retire[1])
	}
	ops := ctrOps / p // ops each rank ran in the counted batches
	c := func(name string) float64 {
		for i, n := range counterNames {
			if n == name {
				return ctr[i]
			}
		}
		panic("unknown counter " + name)
	}
	merged := wr.reg.Merged()
	tp := wr.tputPhase()
	ms := func(f func(setupSample) float64) float64 { return stats.Median(pick(setups, f)) / 1e6 }

	// mpi
	res.set("mpi.allocs_per_op", "count", float64(tp.allocCount)/float64(tp.ops))
	res.set("mpi.msgs_per_op", "count", c("mpi.sends.posted")/ops)
	res.set("mpi.bytes_per_op", "B", c("mpi.send.bytes")/ops)
	res.set("mpi.wait_blocked_us_per_op", "us", c("mpi.wait.blocked_ns")/ops/1e3)
	res.set("mpi.wait_blocks_per_op", "count", c("mpi.wait.blocks")/ops)
	res.set("mpi.msg_flight_us", "us", flightP50(wr.flight.TailAll(0))/1e3)
	res.set("mpi.zerocopy_ratio", "1", ratio(c("mpi.sends.zerocopy"), c("mpi.sends.posted")))
	res.set("mpi.recv_detached_ratio", "1", ratio(c("mpi.recv.detached"), c("mpi.recvs.completed")))
	res.set("mpi.wirepool_hit_ratio", "1", ratio(c("mpi.wirepool.hit"), c("mpi.wirepool.hit")+c("mpi.wirepool.miss")))
	res.set("mpi.unexpected_hwm", "count", float64(merged.Value("mpi.unexpected.hwm")))
	res.set("mpi.spawn_ms", "ms", ms(func(s setupSample) float64 { return s.spawn }))
	res.set("datatype.gathered_sends_per_op", "count", c("mpi.sends.gathered")/ops)

	// transport
	connect := 0.0
	if wr.wl.backend != "loopback" {
		connect = ms(func(s setupSample) float64 { return s.connect })
	}
	res.set("transport.connect_ms", "ms", connect)

	// cart
	var hit, miss float64
	for _, s := range setups {
		hit += float64(s.hit)
		miss += float64(s.miss)
	}
	res.set("cart.create_ms", "ms", ms(func(s setupSample) float64 { return s.create }))
	res.set("cart.init_ms", "ms", ms(func(s setupSample) float64 { return s.init }))
	res.set("cart.plancache_hit_ratio", "1", ratio(hit, hit+miss))
	runNs := meanNs(ranks, fnRun)
	if wr.wl.name == "jacobi9" {
		runNs = meanNs(ranks, fnExchange)
	}
	startNs, waitNs := meanNs(ranks, fnStart), meanNs(ranks, fnWait)
	res.set("cart.run_us", "us", runNs/1e3)
	res.set("cart.start_us", "us", startNs/1e3)
	res.set("cart.wait_us", "us", waitNs/1e3)
	var execs, rounds, msgs, blocks, elems float64
	for _, rc := range ranks {
		for _, s := range rc.stats {
			execs += float64(s.Executions)
			rounds += float64(s.RoundsActive)
			msgs += float64(s.MessagesSent)
			blocks += float64(s.BlocksForwarded)
			elems += float64(s.ElementsSent)
		}
	}
	res.set("cart.rounds_per_op", "count", rounds/execs)
	res.set("cart.msgs_per_op", "count", msgs/execs)
	res.set("cart.blocks_fwd_per_op", "count", blocks/execs)
	res.set("cart.elems_per_op", "count", elems/execs)
	dec := ranks[0].dec
	modelUs := dec.CostCombining * 1e6
	if dec.Chosen == cart.Trivial {
		modelUs = dec.CostTrivial * 1e6
	}
	res.set("cart.model_us", "us", modelUs)
	res.set("cart.model_ratio", "1", ratio((runNs+startNs+waitNs)/1e3, modelUs))
	res.set("cart.retire_us", "us", ratio(retSum, retCnt)/1e3)
	res.set("cart.prepost_hwm", "count", float64(merged.Value("cart.prepost.hwm")))
	res.set("cart.async_inflight_max", "count", float64(merged.Value("cart.async.inflight")))

	// stencil
	kernelNs := meanNs(ranks, fnKernel)
	res.set("stencil.kernel_ms", "ms", kernelNs/1e6)
	res.set("stencil.exchange_ms", "ms", meanNs(ranks, fnExchange)/1e6)
	halo, gbps := 0.0, 0.0
	if wr.grids != nil {
		halo = elems / execs * p * 8
		nx, ny, _, _ := jacobiLocal(wr.wl, 0)
		gbps = ratio(float64(2*nx*ny*8), kernelNs) // bytes per ns = GB/s
	}
	res.set("stencil.halo_bytes_per_iter", "B", halo)
	res.set("stencil.kernel_GBps_computed", "GB/s", gbps)
	res.set("stencil.plain_serial_ms", "ms", wr.plainNs/1e6)

	// tune
	res.set("tune.crossover_bytes", "B", dec.CrossoverBytes)

	// The layer split of the traced ops.
	var opNs, nOps float64
	var inOp [numLayers]float64
	for _, rc := range ranks {
		nOps += float64(rc.tr.ops)
		opNs += float64(rc.tr.opNs)
		for l := range inOp {
			inOp[l] += float64(rc.tr.inOp[l])
		}
	}
	covered := 0.0
	for l, v := range inOp {
		if layerID(l) == layerMPI || layerID(l) == layerTransport {
			continue // no mpi or transport call lies inside an op
		}
		res.set("self."+layerNames[l]+"_us_per_op", "us", v/nOps/1e3)
		covered += v
	}
	res.set("self.mpi_barrier_us", "us", meanNs(ranks, fnBarrier)/1e3)
	res.set("self.bench_us_per_op", "us", (opNs-covered)/nOps/1e3)
	unattributed := (opNs - covered) / opNs
	res.set("trace.unattributed_pct", "%", 100*unattributed)
	if unattributed > unattributedTolerance || unattributed < 0 {
		res.Correct = false
		return fmt.Errorf("layer spans cover %.1f%% of the traced op time, want within %.0f%%",
			100*covered/opNs, 100*unattributedTolerance)
	}
	return nil
}
