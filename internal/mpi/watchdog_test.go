package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWFGDetectsMismatchedTag is the acceptance scenario for the
// wait-for-graph monitor: a schedule bug (one rank receives on a tag
// nobody sends) must be diagnosed in well under a second — not after a
// 60-second timer — with a report naming every blocked rank's operation
// and the mismatched traffic sitting in the unexpected queues.
func TestWFGDetectsMismatchedTag(t *testing.T) {
	t0 := time.Now()
	err := Run(Config{Procs: 4, Timeout: 30 * time.Second}, func(c *Comm) error {
		// Everyone sends tag 0 to the next rank, then receives from the
		// previous — but rank 0 receives tag 99 by mistake. The sends are
		// buffered, so every rank ends up blocked in a receive: ranks 1-3
		// starve because 0 never progresses; rank 0 waits forever.
		p := c.Size()
		next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		for i := 0; i < 3; i++ {
			if err := SendSlice(c, []int{c.Rank()}, next, 0); err != nil {
				return err
			}
			tag := 0
			if c.Rank() == 0 && i == 1 {
				tag = 99 // the schedule bug
			}
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, prev, tag); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("mismatched schedule completed")
	}
	if elapsed > time.Second {
		t.Fatalf("detection took %v, want < 1s", elapsed)
	}
	var dle *DeadlockError
	if !errors.As(err, &dle) {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("report does not say deadlock: %v", err)
	}
	// The report must name every blocked rank's pending operation, and
	// rank 0's entry must expose both the bad tag and the queued messages
	// that explain the mismatch.
	if len(dle.Blocked) == 0 {
		t.Fatalf("report names no blocked ranks: %v", err)
	}
	msg := err.Error()
	for _, br := range dle.Blocked {
		if !strings.Contains(msg, fmt.Sprintf("rank %d:", br.Rank)) {
			t.Fatalf("report misses rank %d: %v", br.Rank, msg)
		}
		if br.Op == "" {
			t.Fatalf("rank %d has no op description", br.Rank)
		}
	}
	if !strings.Contains(msg, "tag=99") {
		t.Fatalf("report does not show the mismatched tag: %v", msg)
	}
	for _, br := range dle.Blocked {
		if br.Rank == 0 && len(br.Queued) == 0 {
			t.Fatalf("rank 0's unexpected queue not reported: %+v", br)
		}
	}
}

// TestWFGDetectsCycle: a wait-for cycle among three ranks is diagnosed as
// such even while a fourth rank is still alive and busy (so the
// all-blocked proof cannot fire).
func TestWFGDetectsCycle(t *testing.T) {
	errCh := make(chan error, 1)
	// Channel-synchronized bystander: rank 3 stays alive (never MPI-blocked)
	// until rank 0 has actually observed the detection, however long it
	// takes — the old fixed 400ms sleep flaked under -race when detection
	// outlived it, letting the all-blocked proof fire instead of the cycle.
	detected := make(chan struct{})
	err := Run(Config{Procs: 4, Timeout: 30 * time.Second}, func(c *Comm) error {
		if c.Rank() == 3 {
			<-detected
			return nil
		}
		// Ranks 0,1,2 each receive from the next before sending: a classic
		// head-to-head cycle 0 <- 1 <- 2 <- 0.
		buf := make([]int, 1)
		start := time.Now()
		_, err := RecvSlice(c, buf, (c.Rank()+1)%3, 4)
		if c.Rank() == 0 {
			select {
			case errCh <- fmt.Errorf("detected after %v: %w", time.Since(start), err):
			default:
			}
			close(detected)
		}
		return err
	})
	var dle *DeadlockError
	if !errors.As(err, &dle) {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if dle.Kind != "cycle" {
		t.Fatalf("proof kind = %q, want cycle (err: %v)", dle.Kind, err)
	}
	if len(dle.Cycle) != 3 {
		t.Fatalf("cycle = %v, want the 3 ring members", dle.Cycle)
	}
	select {
	case got := <-errCh:
		t.Logf("rank 0 observed: %v", got)
	default:
		t.Fatal("rank 0 never unblocked")
	}
}

// TestWFGDetectsOrphan: a receive from a rank that already finished can
// never match; the monitor proves this even though other ranks are alive.
func TestWFGDetectsOrphan(t *testing.T) {
	// Rank 2 is a live bystander held open by a channel until detection has
	// demonstrably happened (rank 0 unblocked), replacing a fixed sleep that
	// raced the monitor's proof construction.
	detected := make(chan struct{})
	err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return nil // finishes immediately, sends nothing
		case 2:
			<-detected
			return nil
		default:
			buf := make([]int, 1)
			_, err := RecvSlice(c, buf, 1, 0)
			close(detected)
			return err
		}
	})
	var dle *DeadlockError
	if !errors.As(err, &dle) {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	if dle.Kind != "orphan" {
		t.Fatalf("proof kind = %q, want orphan (err: %v)", dle.Kind, err)
	}
	found := false
	for _, r := range dle.Finished {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("report does not list rank 1 as finished: %v", err)
	}
}

// TestDiagnosisReportsProvingSnapshot: the report is built from the
// snapshot that proved the deadlock, not from a second read of the
// registry. Here the live registry is empty (no rank is blocked), yet
// every rank of the snapshot appears with its recorded operation — a rank
// that unregisters between the proof and the report stays in it.
func TestDiagnosisReportsProvingSnapshot(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		since := time.Now().Add(-time.Second)
		ops := []blockedView{
			{on: true, kind: "recv", src: 1, tag: AnyTag, ctx: 3, npend: 1, since: since, waitsOn: 1},
			{on: true, kind: "waitsome", npend: 2, since: since, waitsOn: -1},
		}
		diag := c.w.buildDiagnosis("cycle", []int{0, 1}, ops, []bool{false, false})
		if len(diag.Blocked) != 2 {
			return fmt.Errorf("report lists %d blocked rank(s), want 2: %v", len(diag.Blocked), diag)
		}
		want := []string{"recv(src=1 tag=any ctx=3)", "waitsome over 2 pending receive(s)"}
		for i, b := range diag.Blocked {
			if b.Rank != i || b.Op != want[i] || b.WaitsOn != ops[i].waitsOn || b.BlockedFor < time.Second {
				return fmt.Errorf("blocked[%d] = %+v, want rank %d op %q waitsOn %d", i, b, i, want[i], ops[i].waitsOn)
			}
		}
		return nil
	})
}

// TestWFGNoFalsePositive: slow but progressing runs — ranks alternating
// sleeps and exchanges — must not trip the monitor. The sleep here is the
// stimulus (it manufactures ranks that sit MPI-blocked across monitor
// intervals), not a timing assertion: a slower machine only makes the
// stimulus stronger, so it cannot flake.
func TestWFGNoFalsePositive(t *testing.T) {
	err := Run(Config{Procs: 4, Timeout: 30 * time.Second}, func(c *Comm) error {
		p := c.Size()
		next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		for i := 0; i < 10; i++ {
			if c.Rank()%2 == 0 {
				// Even ranks dawdle before sending: odd ranks sit blocked in
				// their receives for many monitor intervals.
				time.Sleep(10 * time.Millisecond)
			}
			out, in := []int{i}, make([]int, 1)
			if _, err := Sendrecv(c, out, contiguousN(1), next, 0, in, contiguousN(1), prev, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("monitor fired on a live run: %v", err)
	}
}

// TestWFGDisabled: DeadlockPoll < 0 turns the monitor off; the fallback
// timer (Config.Timeout) still catches the hang.
func TestWFGDisabled(t *testing.T) {
	t0 := time.Now()
	// Rank 1 must outlive rank 0's 150ms fallback timer; waiting on a
	// channel closed when the timer has provably fired removes the old
	// 400ms-vs-150ms sleep race.
	fired := make(chan struct{})
	err := Run(Config{Procs: 2, Timeout: 150 * time.Millisecond, DeadlockPoll: -1}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]int, 1)
			_, err := RecvSlice(c, buf, 1, 9)
			close(fired)
			return err
		}
		<-fired
		return nil
	})
	if err == nil {
		t.Fatal("hang not detected")
	}
	var dle *DeadlockError
	if errors.As(err, &dle) {
		t.Fatalf("disabled monitor still produced a DeadlockError: %v", err)
	}
	if !strings.Contains(err.Error(), "deadlock suspected") {
		t.Fatalf("fallback timer did not fire: %v", err)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatalf("fallback took %v", time.Since(t0))
	}
}

// TestTimeoutNegativeDisables: Timeout < 0 disables the fallback timer
// entirely — a receive that is merely slow completes instead of being
// killed by an over-eager timer. The sender's delay is a fixed sleep on
// purpose: with the timer disabled there is nothing for the delay to race,
// so it can only make the test slower, never flaky, and 50ms keeps rank 0
// demonstrably parked across several monitor-less poll intervals.
func TestTimeoutNegativeDisables(t *testing.T) {
	err := Run(Config{Procs: 2, Timeout: -1}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]int, 1)
			if _, err := RecvSlice(c, buf, 1, 9); err != nil {
				return err
			}
			if buf[0] != 42 {
				return fmt.Errorf("got %d", buf[0])
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond)
		return SendSlice(c, []int{42}, 0, 9)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidSendrecv: a rank failing while its partner sits inside
// Sendrecv must release the partner with a cascade (ErrAborted) error,
// and the run error must carry only the root cause.
func TestAbortMidSendrecv(t *testing.T) {
	observed := make([]error, 3)
	// Ranks 0 and 1 announce their Sendrecv just before posting it; rank 2
	// fails only after both announcements, so the abort lands while the
	// partners are inside (or entering) the exchange — channel-synchronized
	// instead of the old 30ms sleep. The assertions hold either way (the
	// abort also releases waits posted after it), so this cannot flake.
	posted := make(chan struct{}, 2)
	err := Run(Config{Procs: 3, Timeout: 30 * time.Second}, func(c *Comm) error {
		switch c.Rank() {
		case 2:
			<-posted
			<-posted
			return fmt.Errorf("rank 2 exploded")
		default:
			// 0 and 1 exchange with each other but also wait on rank 2's
			// round, which never comes.
			buf := make([]int, 1)
			posted <- struct{}{}
			_, err := Sendrecv(c, []int{c.Rank()}, contiguousN(1), 1-c.Rank(), 0,
				buf, contiguousN(1), 2, 0)
			observed[c.Rank()] = err
			return err
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 exploded") {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "ranks failed") {
		t.Fatalf("cascade errors promoted to primary: %v", err)
	}
	for _, r := range []int{0, 1} {
		if observed[r] == nil {
			t.Fatalf("rank %d was not released", r)
		}
		if !errors.Is(observed[r], ErrAborted) && !errors.As(observed[r], new(*DeadlockError)) {
			t.Fatalf("rank %d observed %v, want ErrAborted", r, observed[r])
		}
	}
}

// TestDoubleWaitAfterAbort: waiting twice on a request that completed
// with an abort error returns the recorded error both times.
func TestDoubleWaitAfterAbort(t *testing.T) {
	errs := make([]error, 2)
	// Rank 1 fails only after rank 0's receive is posted, so the abort is
	// guaranteed to be what completes the request — synchronized through a
	// channel rather than the old 20ms sleep.
	posted := make(chan struct{})
	_ = Run(Config{Procs: 2, Timeout: 30 * time.Second}, func(c *Comm) error {
		if c.Rank() == 1 {
			<-posted
			return fmt.Errorf("bang")
		}
		buf := make([]int, 1)
		req, err := Irecv(c, buf, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		close(posted)
		_, errs[0] = req.Wait()
		_, errs[1] = req.Wait()
		return errs[0]
	})
	if errs[0] == nil {
		t.Fatal("first Wait returned nil")
	}
	if errs[1] == nil || errs[1].Error() != errs[0].Error() {
		t.Fatalf("second Wait = %v, first = %v", errs[1], errs[0])
	}
}

// TestCancelReceive: Cancel removes an unmatched receive (completing it
// with ErrCancelled) and refuses once a message has been handed over.
func TestCancelReceive(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			return SendSlice(c, []int{5}, 0, 1)
		}
		buf := make([]int, 1)
		// A receive nobody matches: cancellable.
		req, err := Irecv(c, buf, contiguousN(1), 1, 99)
		if err != nil {
			return err
		}
		if !req.Cancel() {
			return fmt.Errorf("unmatched receive not cancelled")
		}
		if _, err := req.Wait(); !errors.Is(err, ErrCancelled) {
			return fmt.Errorf("cancelled Wait = %v, want ErrCancelled", err)
		}
		// A matched receive: not cancellable.
		req2, err := Irecv(c, buf, contiguousN(1), 1, 1)
		if err != nil {
			return err
		}
		if _, err := req2.Wait(); err != nil {
			return err
		}
		if req2.Cancel() {
			return fmt.Errorf("completed receive reported cancelled")
		}
		return nil
	})
}

// TestWaitanyBlocksOnCompletionChannel replaces the old poll-sweep-rate
// regression test (the waitanyIdleSweeps hook is gone with the poll loop):
// a blocked Waitany must park on the WaitSet completion channel — visible
// to the deadlock monitor as a "waitsome" registration — and wake when the
// delayed message is matched.
func TestWaitanyBlocksOnCompletionChannel(t *testing.T) {
	// The message is released only after the watcher has seen Waitany's
	// watchdog registration, so Waitany is provably parked on the
	// completion channel when the send happens. (The old version slept
	// 150ms before sending and failed if the send beat Waitany to the
	// mailbox, in which case no registration ever appeared.)
	sendNow := make(chan struct{})
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			<-sendNow
			return SendSlice(c, []int{1}, 0, 0)
		}
		buf := make([]int, 1)
		req, err := Irecv(c, buf, contiguousN(1), 1, 0)
		if err != nil {
			return err
		}
		// Sample the watchdog registry while Waitany blocks: the wait is
		// one atomic registration, not a sweep loop.
		seen := make(chan string, 1)
		go func() {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if op := c.w.viewBlocked(0); op.on {
					seen <- op.kind
					close(sendNow)
					return
				}
				time.Sleep(time.Millisecond)
			}
			seen <- ""
			close(sendNow)
		}()
		idx, _, err := Waitany(req)
		if err != nil {
			return err
		}
		if idx != 0 || buf[0] != 1 {
			return fmt.Errorf("Waitany index = %d buf = %v", idx, buf)
		}
		if kind := <-seen; kind != "waitsome" {
			return fmt.Errorf("blocked Waitany registered as %q, want waitsome", kind)
		}
		return nil
	})
}
