package cart

import (
	"errors"
	"fmt"
	"time"

	"cartcc/internal/mpi"
	"cartcc/internal/trace"
	"cartcc/internal/vec"
)

// Self-healing Cartesian worlds: when ranks crash mid-collective, the
// survivors shrink the underlying communicator (mpi.RecoverShrink), agree
// on a new epoch and dead set, re-embed themselves onto a smaller torus
// under a policy, and rebuild the neighborhood communicator with all its
// schedules and plans. Recoverable wraps a collective body in that loop so
// a crash becomes "the collective completed on a smaller world" instead of
// a failed run.
//
// The protocol is built from three agreed transitions, each bracketed by a
// confirmation Agree on the shrunk communicator so no rank starts using a
// generation its peers have not finished building (a rank that bails out
// of a half-built generation revokes exactly the communicators it holds,
// which poisons the peers still blocked inside them into the next round):
//
//	RecoverShrink ─→ SubsetComm ─Agree─→ NeighborhoodCreate ─Agree─→ run
//
// Membership planning is a pure function of agreed data (the old grid and
// the agreed dead set), so every survivor computes the identical plan with
// no additional communication — the communicator for the new world is then
// built with a single collective (SubsetComm) instead of a gather-style
// Split, which could not be poisoned by a rank that failed before learning
// the new context.

// ReembedPolicy selects how survivors are arranged on the shrunk torus.
type ReembedPolicy int

const (
	// CollapseSlab removes entire hyperplanes ("slabs") along one
	// dimension: the dimension is chosen to cover every dead rank's
	// coordinate while sacrificing the fewest survivors (ties: lowest
	// dimension). Survivors keep their coordinates in every other
	// dimension, so data placement stays aligned with the old grid.
	CollapseSlab ReembedPolicy = iota
	// DenseRelabel keeps every survivor it can: it picks the largest grid
	// (by process count) of the same dimensionality that fits the survivor
	// count, preferring shapes close to the original and without degenerate
	// extent-1 dimensions, and fills it with survivors in old rank order.
	DenseRelabel
)

func (p ReembedPolicy) String() string {
	switch p {
	case CollapseSlab:
		return "collapse-slab"
	case DenseRelabel:
		return "dense-relabel"
	}
	return fmt.Sprintf("ReembedPolicy(%d)", int(p))
}

// ErrUnrecoverable marks a failure pattern the re-embedding policy cannot
// fit a grid to (e.g. slab collapse with dead ranks in every hyperplane of
// every dimension). Match with errors.Is. It is deterministic: every
// survivor computes it from agreed data, so all return it together.
var ErrUnrecoverable = errors.New("cart: survivors cannot be re-embedded")

// reembedPlan is the agreed mapping from the old Cartesian world to the
// new one. member[oldRank] is the old rank's position in the new grid, or
// -1 when the rank is dead or demoted to a spare (alive but not placed).
type reembedPlan struct {
	dims    []int
	periods []bool
	member  []int
}

// planReembed computes the re-embedding under the given policy. Pure: it
// depends only on the old grid and the agreed dead set, so every survivor
// computes the identical plan without communicating.
func planReembed(g *vec.Grid, dead map[int]bool, policy ReembedPolicy) (*reembedPlan, error) {
	switch policy {
	case CollapseSlab:
		return planCollapseSlab(g, dead)
	case DenseRelabel:
		return planDenseRelabel(g, dead)
	}
	return nil, fmt.Errorf("cart: unknown re-embedding policy %d", int(policy))
}

// planCollapseSlab removes, along one dimension k, every coordinate slab
// that contains a dead rank. Chooses the k that sacrifices the fewest
// surviving ranks (they become spares); ties break toward the lowest k.
func planCollapseSlab(g *vec.Grid, dead map[int]bool) (*reembedPlan, error) {
	d := g.NDims()
	size := g.Size()
	bestK, bestLoss := -1, 0
	for k := 0; k < d; k++ {
		deadCoords := make(map[int]bool)
		for r := range dead {
			deadCoords[g.CoordOf(r)[k]] = true
		}
		if g.Dims[k]-len(deadCoords) < 1 {
			continue // would collapse the dimension to nothing
		}
		loss := 0
		for r := 0; r < size; r++ {
			if !dead[r] && deadCoords[g.CoordOf(r)[k]] {
				loss++
			}
		}
		if bestK < 0 || loss < bestLoss {
			bestK, bestLoss = k, loss
		}
	}
	if bestK < 0 {
		return nil, fmt.Errorf("%w: dead ranks span every slab of every dimension of %v", ErrUnrecoverable, g.Dims)
	}
	deadCoords := make(map[int]bool)
	for r := range dead {
		deadCoords[g.CoordOf(r)[bestK]] = true
	}
	// offset[x] = how many removed slabs precede coordinate x.
	offset := make([]int, g.Dims[bestK])
	removed := 0
	for x := 0; x < g.Dims[bestK]; x++ {
		offset[x] = removed
		if deadCoords[x] {
			removed++
		}
	}
	dims := append([]int(nil), g.Dims...)
	dims[bestK] -= removed
	periods := append([]bool(nil), g.Periods...)
	ng, err := vec.NewGrid(dims, periods)
	if err != nil {
		return nil, err
	}
	member := make([]int, size)
	for r := 0; r < size; r++ {
		member[r] = -1
		if dead[r] {
			continue
		}
		x := g.CoordOf(r)
		if deadCoords[x[bestK]] {
			continue // survivor in a removed slab: spare
		}
		x[bestK] -= offset[x[bestK]]
		nr, err := ng.RankOf(x)
		if err != nil {
			return nil, err
		}
		member[r] = nr
	}
	return &reembedPlan{dims: dims, periods: periods, member: member}, nil
}

// planDenseRelabel picks the best same-dimensionality grid whose size does
// not exceed the survivor count — maximizing placed survivors, then
// avoiding degenerate extent-1 dimensions, then staying close to the old
// shape, then lexicographically smallest — and fills it with survivors in
// old rank order; the overflow become spares.
func planDenseRelabel(g *vec.Grid, dead map[int]bool) (*reembedPlan, error) {
	d := g.NDims()
	size := g.Size()
	survivors := 0
	for r := 0; r < size; r++ {
		if !dead[r] {
			survivors++
		}
	}
	if survivors == 0 {
		return nil, fmt.Errorf("%w: no survivors", ErrUnrecoverable)
	}
	var best []int
	bestProd, bestOnes, bestDist := -1, 0, 0
	cur := make([]int, d)
	var search func(i, prod int)
	search = func(i, prod int) {
		if i == d {
			ones, dist := 0, 0
			for j, e := range cur {
				if e == 1 {
					ones++
				}
				if delta := e - g.Dims[j]; delta >= 0 {
					dist += delta
				} else {
					dist -= delta
				}
			}
			better := prod > bestProd ||
				(prod == bestProd && ones < bestOnes) ||
				(prod == bestProd && ones == bestOnes && dist < bestDist) ||
				(prod == bestProd && ones == bestOnes && dist == bestDist && lexLess(cur, best))
			if better {
				best = append(best[:0], cur...)
				bestProd, bestOnes, bestDist = prod, ones, dist
			}
			return
		}
		for e := 1; e*prod <= survivors; e++ {
			cur[i] = e
			search(i+1, prod*e)
		}
	}
	search(0, 1)
	dims := append([]int(nil), best...)
	periods := append([]bool(nil), g.Periods...)
	member := make([]int, size)
	placed := 0
	for r := 0; r < size; r++ {
		member[r] = -1
		if !dead[r] && placed < bestProd {
			member[r] = placed
			placed++
		}
	}
	return &reembedPlan{dims: dims, periods: periods, member: member}, nil
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Recovered reports the result of one Recover: either a new Cartesian
// communicator for this rank, or the news that this rank survived but was
// not placed on the shrunk grid (a spare).
type Recovered struct {
	// Comm is the rebuilt neighborhood communicator; nil when Spare.
	Comm *Comm
	// Spare is set when this rank survived but has no slot on the new
	// grid (a survivor in a collapsed slab, or relabeling overflow).
	Spare bool
	// Epoch is the new communication epoch all survivors advanced to.
	Epoch int64
	// Dead lists the world ranks of the old communicator's members agreed
	// dead — the difference between the old and new membership.
	Dead []int
	// Dims is the new grid shape.
	Dims []int
	// Attempts counts shrink-consensus rounds across the whole recovery.
	Attempts int
	// Drained counts stale-epoch messages discarded from this rank's
	// mailbox on the epoch advance.
	Drained int
}

// Recover rebuilds the Cartesian world after member failures: survivors
// shrink to an agreed membership and epoch, compute the re-embedding under
// policy, and construct the new neighborhood communicator (same
// neighborhood, weights, and default algorithm; schedules and plans are
// recompiled lazily by the first collective on it). Collective over the
// survivors of c; returns a typed error — never hangs — when recovery is
// impossible (ErrUnrecoverable, ErrRecoveryFailed, or an mpi terminal
// error).
func (c *Comm) Recover(policy ReembedPolicy) (*Recovered, error) {
	base := c.comm
	// Poison the old generation's user traffic so peers still inside a
	// collective on it fail out and join the consensus. Idempotent.
	base.Revoke()
	maxAttempts := 2*c.Size() + 4
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		nc, info, err := base.RecoverShrink()
		if err != nil {
			return nil, err // typed terminal (ErrRecoveryFailed, all dead, ...)
		}
		// The dead set is agreed data (every survivor derives it from the
		// same shrink membership), so the plan is identical everywhere.
		dead := make(map[int]bool, len(info.Dead))
		for r := 0; r < c.Size(); r++ {
			for _, w := range info.Dead {
				if c.comm.WorldRank(r) == w {
					dead[r] = true
					break
				}
			}
		}
		plan, perr := planReembed(c.grid, dead, policy)
		if perr != nil {
			return nil, perr // deterministic: all survivors return together
		}
		// Translate the plan's membership (old cart ranks) into nc ranks.
		// Shrink renumbers survivors in old rank order and both policies
		// assign new ranks monotonically in old rank order, so the list is
		// strictly increasing and position i in it is exactly new rank i.
		oldToNC := make(map[int]int, nc.Size())
		for i := 0; i < nc.Size(); i++ {
			oldToNC[nc.WorldRank(i)] = i
		}
		var subMembers []int
		valid := true
		for r := 0; r < c.Size(); r++ {
			if plan.member[r] < 0 {
				continue
			}
			ncRank, ok := oldToNC[c.comm.WorldRank(r)]
			if !ok || plan.member[r] != len(subMembers) {
				valid = false
				break
			}
			subMembers = append(subMembers, ncRank)
		}
		if !valid {
			return nil, fmt.Errorf("cart: Recover: internal error: re-embedding plan is not monotonic in shrink order")
		}
		sub, serr := nc.SubsetComm(subMembers)
		// First confirmation: nobody touches the sub-communicator until
		// every survivor reports it was built (or that it is a confirmed
		// spare). A rank whose SubsetComm failed never learned sub's
		// context and could not poison peers blocked inside it — so those
		// peers must not enter it in the first place.
		ok1 := 0
		if serr == nil {
			ok1 = 1
		} else {
			// SubsetComm is itself a collective on nc: a rank it failed
			// on (a member died mid-broadcast) may have left peers
			// blocked inside it that the agreement waits for. Poison
			// them out; nc is abandoned anyway once ok1 is 0, and the
			// revoke spares the fault-tolerance context Agree runs on.
			nc.Revoke()
		}
		flag, aerr := nc.Agree(ok1)
		if aerr != nil || flag != 1 {
			if sub != nil {
				sub.Revoke()
			}
			nc.RevokeFull()
			lastErr = firstErr(serr, aerr, fmt.Errorf("cart: Recover: generation %d abandoned", info.Epoch))
			continue
		}
		member := serr == nil && sub != nil
		var ncart *Comm
		ok2 := 1
		var cerr error
		if member {
			// Plans compiled for this generation key on sub's bumped
			// recovery epoch (plancache.go), so *Init after a re-embedding
			// can never bind a pre-recovery cache entry — even when the
			// recovered shape and neighborhood are identical to the old
			// world's. Stale-epoch entries age out via LRU.
			ncart, cerr = NeighborhoodCreate(sub, plan.dims, plan.periods, c.nbh, c.weights, WithAlgorithm(c.algo))
			if cerr != nil {
				ok2 = 0
				sub.Revoke() // free peers blocked in the sub collectives
			}
		}
		// Second confirmation: the new world goes live only once every
		// survivor (members and spares alike) has finished building it.
		flag, aerr = nc.Agree(ok2)
		if aerr != nil || flag != 1 {
			if member {
				sub.Revoke()
			}
			nc.RevokeFull()
			lastErr = firstErr(cerr, aerr, fmt.Errorf("cart: Recover: generation %d abandoned", info.Epoch))
			continue
		}
		rec := &Recovered{
			Comm:     ncart,
			Spare:    !member,
			Epoch:    info.Epoch,
			Dead:     info.Dead,
			Dims:     plan.dims,
			Attempts: info.Attempts,
			Drained:  info.Drained,
		}
		return rec, nil
	}
	return nil, fmt.Errorf("cart: Recover: no stable world after %d attempts (last: %v): %w",
		maxAttempts, lastErr, mpi.ErrRecoveryFailed)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// RecoveryEvent describes one completed recovery, for the OnRecovery hook.
type RecoveryEvent struct {
	// WorldRank identifies the reporting rank stably across epochs.
	WorldRank int
	Epoch     int64
	Dead      []int
	Dims      []int
	Spare     bool
	Attempts  int
	Duration  time.Duration
}

// RecoverConfig configures Recoverable.
type RecoverConfig struct {
	// Policy selects the re-embedding (default CollapseSlab).
	Policy ReembedPolicy
	// MaxRecoveries bounds how many times the body is restarted on a
	// shrunk world before giving up with ErrRecoveryFailed. 0 means the
	// communicator size (more worlds than that cannot exist).
	MaxRecoveries int
	// OnRecovery, when set, is called after each successful recovery.
	OnRecovery func(RecoveryEvent)
	// Log, when set, records each recovery window as a trace span so the
	// outage is visible in the Perfetto export.
	Log *trace.RecoveryLog
}

// RunOutcome reports how a Recoverable call ended.
type RunOutcome struct {
	// Comm is the communicator the body last ran on (the original when no
	// recovery happened); nil when the rank ended up a spare.
	Comm *Comm
	// Spare is set when this rank survived but left the grid.
	Spare bool
	// Recoveries counts completed shrink-and-re-embed cycles.
	Recoveries int
	// Epoch is the final communication epoch.
	Epoch int64
	// Dead accumulates the world ranks declared dead across recoveries.
	Dead []int
	// RecoveryNs is total wall-clock time spent inside recovery.
	RecoveryNs int64
}

// recoverable reports whether err means "peers failed or the communicator
// was revoked" — the failures recovery can absorb. Everything else is
// terminal: deadlock diagnoses, usage errors, and abort cascades — a
// torn-down run wraps the primary rank failure, so the ErrAborted test
// must come first or recovery would spin on a world that no longer exists.
func recoverable(err error) bool {
	if errors.Is(err, mpi.ErrAborted) {
		return false
	}
	return mpi.IsRankFailed(err) || errors.Is(err, mpi.ErrRevoked)
}

// Recoverable runs body on c, and when it fails because members crashed,
// drives recovery and re-runs it on the shrunk world until it completes, a
// typed terminal error occurs, or cfg.MaxRecoveries is exhausted. The body
// must be restartable: it is re-invoked from scratch with the current
// communicator and must not carry state from a failed attempt.
//
// Completion is agreed: after every body attempt, the world's survivors
// Agree on whether all of them finished, so ranks whose local attempt
// happened to complete (sparse neighborhoods need not touch a crashed
// rank) still join their peers' recovery instead of running ahead on a
// world about to be torn down. The agreement also serializes consecutive
// Recoverable calls on the same communicator.
func Recoverable(c *Comm, cfg RecoverConfig, body func(*Comm) error) (*RunOutcome, error) {
	cur := c
	out := &RunOutcome{Comm: c, Epoch: c.comm.Epoch()}
	maxRec := cfg.MaxRecoveries
	if maxRec <= 0 {
		maxRec = c.Size()
	}
	for {
		err := body(cur)
		if err == nil {
			flag, aerr := cur.comm.Agree(1)
			if aerr == nil && flag == 1 {
				return out, nil
			}
			// A peer failed or bailed: fall through to recovery with it.
		} else if !recoverable(err) {
			return out, err
		} else {
			// Poison the generation so peers still inside the body fail out,
			// then join the completion agreement they may be blocked in.
			cur.comm.Revoke()
			cur.comm.Agree(0)
		}
		if out.Recoveries >= maxRec {
			return out, fmt.Errorf("cart: Recoverable: gave up after %d recoveries (last: %v): %w",
				out.Recoveries, err, mpi.ErrRecoveryFailed)
		}
		start := time.Now()
		var logStart time.Duration
		if cfg.Log != nil {
			logStart = cfg.Log.Now()
		}
		rec, rerr := cur.Recover(cfg.Policy)
		if rerr != nil {
			return out, rerr
		}
		elapsed := time.Since(start)
		out.Recoveries++
		out.Epoch = rec.Epoch
		out.RecoveryNs += elapsed.Nanoseconds()
		for _, w := range rec.Dead {
			seen := false
			for _, d := range out.Dead {
				if d == w {
					seen = true
					break
				}
			}
			if !seen {
				out.Dead = append(out.Dead, w)
			}
		}
		worldRank := cur.comm.WorldRank(cur.comm.Rank())
		if set := cur.comm.MetricsSet(); set != nil {
			set.Counter("cart.recoveries").Inc()
			set.Histogram("cart.recovery.ns").Observe(elapsed.Nanoseconds())
		}
		if cfg.Log != nil {
			cfg.Log.Add(trace.RecoverySpan{
				Rank:  worldRank,
				Epoch: rec.Epoch,
				Dead:  append([]int(nil), rec.Dead...),
				Start: logStart,
				End:   cfg.Log.Now(),
			})
		}
		if cfg.OnRecovery != nil {
			cfg.OnRecovery(RecoveryEvent{
				WorldRank: worldRank,
				Epoch:     rec.Epoch,
				Dead:      append([]int(nil), rec.Dead...),
				Dims:      append([]int(nil), rec.Dims...),
				Spare:     rec.Spare,
				Attempts:  rec.Attempts,
				Duration:  elapsed,
			})
		}
		if rec.Spare {
			out.Comm = nil
			out.Spare = true
			return out, nil
		}
		if rec.Comm == nil {
			return out, fmt.Errorf("cart: Recoverable: internal error: recovery reported membership without a communicator")
		}
		cur = rec.Comm
		out.Comm = cur
	}
}

// RunRecoverable runs one regular neighborhood collective under the
// recovery loop: it compiles the plan for the CURRENT world each attempt,
// seeds the send buffer with the oracle convention (element i of rank r is
// r*1_000_000+i, so a recovered run's payloads equal a fresh run on the
// final world shape), and returns the received payload alongside the
// outcome. recv is nil for spares.
func RunRecoverable(c *Comm, cfg RecoverConfig, op OpKind, m int, algo Algorithm, opts ...PlanOption) (*RunOutcome, []int64, error) {
	var recv []int64
	out, err := Recoverable(c, cfg, func(cur *Comm) error {
		recv = nil
		t := cur.NeighborCount()
		var plan *Plan
		var perr error
		sendLen := t * m
		if op == OpAllgather {
			sendLen = m
			plan, perr = AllgatherInit(cur, m, algo, opts...)
		} else {
			plan, perr = AlltoallInit(cur, m, algo, opts...)
		}
		if perr != nil {
			return perr
		}
		send := make([]int64, sendLen)
		for i := range send {
			send[i] = int64(cur.Rank())*1_000_000 + int64(i)
		}
		r := make([]int64, t*m)
		for i := range r {
			r[i] = -1
		}
		if rerr := Run(plan, send, r); rerr != nil {
			return rerr
		}
		recv = r
		return nil
	})
	if err != nil || out.Spare {
		return out, nil, err
	}
	return out, recv, nil
}
