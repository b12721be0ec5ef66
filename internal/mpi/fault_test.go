package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCrashPropagatesTypedError is the core fault-injection contract: a
// seeded rank crash terminates the whole run with a typed RankFailedError
// and no rank hangs — peers waiting on the dead rank are poisoned.
func TestCrashPropagatesTypedError(t *testing.T) {
	var survivors sync.Map
	err := Run(Config{
		Procs:   4,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 2, AtOp: 3}}},
	}, func(c *Comm) error {
		p := c.Size()
		next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		for i := 0; i < 10; i++ {
			out, in := []int{c.Rank()}, make([]int, 1)
			if _, err := Sendrecv(c, out, contiguousN(1), next, 0, in, contiguousN(1), prev, 0); err != nil {
				survivors.Store(c.Rank(), err)
				return err
			}
		}
		return nil
	})
	if !IsRankFailed(err) {
		t.Fatalf("run error is not a RankFailedError: %v", err)
	}
	var rfe *RankFailedError
	if !errors.As(err, &rfe) || rfe.Rank != 2 {
		t.Fatalf("failed rank = %v, want 2 (err: %v)", rfe, err)
	}
	// At least the dead rank's neighbors must have observed the typed error.
	for _, r := range []int{1, 3} {
		v, ok := survivors.Load(r)
		if !ok {
			t.Fatalf("rank %d did not observe the failure", r)
		}
		if !IsRankFailed(v.(error)) {
			t.Fatalf("rank %d observed %v, want RankFailedError", r, v)
		}
	}
}

// TestOpsOnDeadRankFailFast: once a rank is marked failed, new sends and
// receives naming it complete immediately with the typed error instead of
// blocking, and the failure-detector oracle reports it.
func TestOpsOnDeadRankFailFast(t *testing.T) {
	err := Run(Config{
		Procs:   3,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 2, AtOp: 1}}},
	}, func(c *Comm) error {
		switch c.Rank() {
		case 2:
			// First op trips the crash.
			return SendSlice(c, []int{1}, 0, 0)
		case 0:
			// Wait until the detector sees the failure, then probe both ops.
			for len(c.FailedRanks()) == 0 {
				time.Sleep(time.Millisecond)
			}
			if got := c.FailedRanks(); len(got) != 1 || got[0] != 2 {
				return fmt.Errorf("FailedRanks = %v, want [2]", got)
			}
			if err := SendSlice(c, []int{1}, 2, 0); !IsRankFailed(err) {
				return fmt.Errorf("send to dead rank: %v, want RankFailedError", err)
			}
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, 2, 0); !IsRankFailed(err) {
				return fmt.Errorf("recv from dead rank: %v, want RankFailedError", err)
			}
			return nil
		}
		return nil
	})
	// The injected crash itself is the run's primary error.
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want RankFailedError", err)
	}
}

// TestStragglerCompletes: a straggler slows the run down but is not a
// failure — the collective completes with correct data.
func TestStragglerCompletes(t *testing.T) {
	err := Run(Config{
		Procs:   4,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Stragglers: []Straggler{{Rank: 1, PerOp: 500 * time.Microsecond}}},
	}, func(c *Comm) error {
		sum := []int{c.Rank()}
		if err := Allreduce(c, sum, sum, SumOp[int]); err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("allreduce = %d, want 6", sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMsgDelayPreservesOrder: injected per-message delays stall delivery
// but must not break the non-overtaking guarantee or the data.
func TestMsgDelayPreservesOrder(t *testing.T) {
	err := Run(Config{
		Procs:   2,
		Timeout: 20 * time.Second,
		Seed:    3,
		Faults: &FaultPlan{Delays: []MsgDelay{
			{From: 0, To: 1, Every: 2, Delay: 2 * time.Millisecond},
		}},
	}, func(c *Comm) error {
		const n = 8
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := SendSlice(c, []int{i}, 1, 7); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, 0, 7); err != nil {
				return err
			}
			if buf[0] != i {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanValidation: a plan naming a rank outside the run, or a
// crash with no trigger, is rejected before any goroutine starts.
func TestFaultPlanValidation(t *testing.T) {
	for _, fp := range []*FaultPlan{
		{Crashes: []Crash{{Rank: 9, AtOp: 1}}},
		{Crashes: []Crash{{Rank: 0}}},
		{Stragglers: []Straggler{{Rank: -1}}},
		{Delays: []MsgDelay{{From: -2, To: 0}}},
	} {
		if err := Run(Config{Procs: 2, Faults: fp}, func(c *Comm) error { return nil }); err == nil {
			t.Fatalf("plan %+v accepted", fp)
		}
	}
}

// TestRevoke: revoking a communicator fails its pending and future
// operations on every member with ErrRevoked.
func TestRevoke(t *testing.T) {
	err := Run(Config{Procs: 3, Timeout: 20 * time.Second}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// Blocked receive that nobody will ever match.
			buf := make([]int, 1)
			_, err := RecvSlice(c, buf, 1, 5)
			if !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("pending recv after revoke: %v, want ErrRevoked", err)
			}
			return nil
		case 1:
			time.Sleep(20 * time.Millisecond)
			c.Revoke()
			// Future operations fail too, on the revoker itself.
			if err := SendSlice(c, []int{1}, 2, 0); !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("send after revoke: %v, want ErrRevoked", err)
			}
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRevokeReturnsAfterPoisoning: Revoke returns only once every pending
// receive on the communicator is poisoned, also when another revoker
// marked it first. Here the first revoker is frozen between marking the
// context and walking the mailboxes (the mark is set by hand); a second
// Revoke must still poison the receive posted before the mark, or the
// revoker could finish while a peer stays blocked on it.
func TestRevokeReturnsAfterPoisoning(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		req, err := Irecv(c, make([]int, 1), contiguousN(1), 1, 5)
		if err != nil {
			return err
		}
		w := c.w
		w.deadMu.Lock()
		if w.revoked == nil {
			w.revoked = make(map[int64]bool)
		}
		w.revoked[c.ctx], w.revoked[c.ctx^collCtxBit] = true, true
		w.revokedN.Add(1)
		w.deadMu.Unlock()
		c.Revoke()
		done, _, err := req.Test()
		if !done || !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("receive after a second Revoke: done=%v err=%v, want ErrRevoked", done, err)
		}
		return nil
	})
}

// TestAgree: with no failures Agree computes the bitwise AND across all
// members.
func TestAgree(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		flag := 0b111
		if c.Rank() == 3 {
			flag = 0b101
		}
		got, err := c.Agree(flag)
		if err != nil {
			return err
		}
		if got != 0b101 {
			return fmt.Errorf("Agree = %b, want 101", got)
		}
		return nil
	})
}

// TestAgreeExcludesDead: Agree tolerates a rank that failed before the
// call, excluding its contribution.
func TestAgreeExcludesDead(t *testing.T) {
	err := Run(Config{
		Procs:   4,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 1, AtOp: 1}}},
	}, func(c *Comm) error {
		if c.Rank() == 1 {
			return SendSlice(c, []int{1}, 0, 0) // trips the crash
		}
		for len(c.FailedRanks()) == 0 {
			time.Sleep(time.Millisecond)
		}
		got, err := c.Agree(1)
		if err != nil {
			return err
		}
		if got != 1 {
			return fmt.Errorf("Agree among survivors = %d, want 1", got)
		}
		return nil
	})
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want the injected RankFailedError", err)
	}
}

// TestShrinkRebuildsComm: after a failure the survivors Shrink into a
// dense communicator and can run collectives on it.
func TestShrinkRebuildsComm(t *testing.T) {
	err := Run(Config{
		Procs:   5,
		Timeout: 20 * time.Second,
		Faults:  &FaultPlan{Crashes: []Crash{{Rank: 2, AtOp: 1}}},
	}, func(c *Comm) error {
		if c.Rank() == 2 {
			return SendSlice(c, []int{1}, 0, 0)
		}
		for len(c.FailedRanks()) == 0 {
			time.Sleep(time.Millisecond)
		}
		s, err := c.Shrink()
		if err != nil {
			return err
		}
		if s.Size() != 4 {
			return fmt.Errorf("shrunk size = %d, want 4", s.Size())
		}
		// Old rank 3 must have become new rank 2 (dense renumbering).
		if c.Rank() == 3 && s.Rank() != 2 {
			return fmt.Errorf("old rank 3 got new rank %d, want 2", s.Rank())
		}
		sum := []int{1}
		if err := Allreduce(s, sum, sum, SumOp[int]); err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("allreduce on shrunk comm = %d, want 4", sum[0])
		}
		return nil
	})
	if !IsRankFailed(err) {
		t.Fatalf("run error = %v, want the injected RankFailedError", err)
	}
}

// TestErrorAggregation: when several ranks fail with their own (primary)
// errors, the run error joins them all and counts the failing ranks, so
// no rank's diagnosis is lost.
func TestErrorAggregation(t *testing.T) {
	err := Run(Config{Procs: 4, Timeout: 20 * time.Second}, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return fmt.Errorf("first failure")
		case 3:
			return fmt.Errorf("second failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("run succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "first failure") || !strings.Contains(msg, "second failure") {
		t.Fatalf("aggregated error lost a rank's failure: %v", msg)
	}
	if !strings.Contains(msg, "2 ranks failed") {
		t.Fatalf("aggregated error does not count failing ranks: %v", msg)
	}
}

// TestCascadeErrorsSuppressed: ranks that fail only because the run was
// aborted (cascade) must not drown out the primary failure.
func TestCascadeErrorsSuppressed(t *testing.T) {
	err := Run(Config{Procs: 3, Timeout: 20 * time.Second}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("root cause")
		}
		// The others block on a receive that aborts when rank 0 fails.
		buf := make([]int, 1)
		_, err := RecvSlice(c, buf, 0, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "root cause") {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "ranks failed") {
		t.Fatalf("cascade errors were counted as primary failures: %v", err)
	}
}
