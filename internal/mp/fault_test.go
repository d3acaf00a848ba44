package mp

import (
	"errors"
	"testing"
	"time"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/vclock"
)

// faultWorld builds a small multi-node world over the 10 GbE model.
func faultWorld(t *testing.T, nranks, perNode int) *World {
	t.Helper()
	topo, err := BlockTopology(nranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netmodel.NewFabric(netmodel.TenGigE, topo.NNodes())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(topo, fab, vclock.LinearRater{FlopsPerSec: 1e9, BytesPerSec: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runWithDeadline fails the test if the world does not finish within d —
// the deadlock guard the fault paths exist to make unnecessary.
func runWithDeadline(t *testing.T, w *World, d time.Duration, body func(r *Rank) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("world deadlocked: no result within %v", d)
		return nil
	}
}

// TestNodeCrashMidCollectivePoisonsAllRanks kills a node mid-Allreduce and
// checks that every rank — survivors included — observes ErrRankDead
// instead of deadlocking on messages from the dead node.
func TestNodeCrashMidCollectivePoisonsAllRanks(t *testing.T) {
	const nranks, perNode = 8, 2
	w := faultWorld(t, nranks, perNode)
	// Each iteration charges ~1 ms of compute, then synchronises. Kill
	// node 1 (ranks 2 and 3) mid-series.
	if err := w.ScheduleNodeCrash(1, 0.005); err != nil {
		t.Fatal(err)
	}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		for i := 0; i < 100; i++ {
			r.ChargeCompute(1e6, 0)
			got := r.AllreduceScalar(OpSum, 1)
			if got != float64(r.Size()) {
				t.Errorf("rank %d: allreduce %v, want %v", r.ID(), got, float64(r.Size()))
			}
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("Run error = %v, want ErrRankDead", err)
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("Run error %T does not wrap RankError", err)
	}
	f, down := w.Failure()
	if !down || f.Node != 1 || f.At != 0.005 {
		t.Fatalf("Failure() = %+v, %v; want node 1 at 0.005", f, down)
	}
	if w.MaxVirtualTime() < 0.005 {
		t.Fatalf("MaxVirtualTime %v < failure time", w.MaxVirtualTime())
	}
}

// TestCrashBeyondRunIsNeverReached schedules a crash after the job's total
// virtual work: the run must complete cleanly.
func TestCrashBeyondRunIsNeverReached(t *testing.T) {
	w := faultWorld(t, 4, 2)
	if err := w.ScheduleNodeCrash(0, 1e9); err != nil {
		t.Fatal(err)
	}
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		for i := 0; i < 5; i++ {
			r.AllreduceScalar(OpSum, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if _, down := w.Failure(); down {
		t.Fatal("world poisoned although crash time was never reached")
	}
}

// TestCrashDeterminism runs the same killed job twice and checks both the
// failure record and the typed error agree — the fault trigger is virtual
// time, not wall-clock racing.
func TestCrashDeterminism(t *testing.T) {
	run := func() (Failure, error) {
		w := faultWorld(t, 8, 2)
		if err := w.ScheduleNodeCrash(2, 0.003); err != nil {
			t.Fatal(err)
		}
		err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
			for i := 0; i < 100; i++ {
				r.ChargeCompute(1e6, 0)
				r.AllreduceScalar(OpMax, float64(r.ID()))
			}
			return nil
		})
		f, _ := w.Failure()
		return f, err
	}
	f1, err1 := run()
	f2, err2 := run()
	if f1 != f2 {
		t.Fatalf("failure records differ: %+v vs %+v", f1, f2)
	}
	if !errors.Is(err1, ErrRankDead) || !errors.Is(err2, ErrRankDead) {
		t.Fatalf("errors not ErrRankDead: %v / %v", err1, err2)
	}
}

// TestScheduleValidation rejects out-of-range nodes and bad windows.
func TestScheduleValidation(t *testing.T) {
	w := faultWorld(t, 4, 2)
	if err := w.ScheduleNodeCrash(5, 1); err == nil {
		t.Fatal("crash on out-of-range node accepted")
	}
	if err := w.ScheduleNodeCrash(0, -1); err == nil {
		t.Fatal("negative crash time accepted")
	}
	if err := w.ScheduleDegrade(0, 2, 1, 2); err == nil {
		t.Fatal("inverted degrade window accepted")
	}
	if err := w.ScheduleDegrade(0, 0, 1, 0); err == nil {
		t.Fatal("zero degrade factor accepted")
	}
}

// TestDegradeSlowsCommunication checks a straggler window inflates the
// degraded node's communication time and disappears outside the window.
func TestDegradeSlowsCommunication(t *testing.T) {
	elapsed := func(factor float64) float64 {
		w := faultWorld(t, 4, 2)
		if factor > 1 {
			if err := w.ScheduleDegrade(1, 0, 1e9, factor); err != nil {
				t.Fatal(err)
			}
		}
		if err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
			for i := 0; i < 20; i++ {
				r.AllreduceScalar(OpSum, 1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxVirtualTime()
	}
	base := elapsed(1)
	slow := elapsed(8)
	if !(slow > base*1.5) {
		t.Fatalf("degraded run %v not slower than clean %v", slow, base)
	}
}

// TestAnySourceReceiveOutlivesPoison pins the any-source death rule: a
// poisoned world does not cut short a RecvAnyInts whose sender is alive,
// however late (in wall time) that sender runs. Rank 1 sends only after
// node 2's crash has poisoned the world; rank 0 must still receive it, and
// then unwind at its next any-source receive, which only the dead rank
// could have satisfied.
func TestAnySourceReceiveOutlivesPoison(t *testing.T) {
	w := faultWorld(t, 3, 1)
	if err := w.ScheduleNodeCrash(2, 0); err != nil {
		t.Fatal(err)
	}
	got := -1
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		switch r.ID() {
		case 0:
			src, _ := r.RecvAnyInts(7)
			got = src
			r.RecvAnyInts(7)
			return errors.New("second any-source receive was satisfied")
		case 1:
			for {
				if _, down := w.Failure(); down {
					break
				}
				time.Sleep(time.Millisecond)
			}
			r.SendInts(0, 7, []int{1})
		case 2:
			r.SendInts(0, 7, []int{2}) // trips the crash before sending
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("run error %v, want ErrRankDead", err)
	}
	if got != 1 {
		t.Fatalf("rank 0 received from %d before dying, want the live rank 1", got)
	}
}

// TestAnySourceReceiveUnwindsWhenNoSenderRemains checks that without any
// fault a RecvAnyInts nobody can satisfy — its only peer returned early —
// ends the run with ErrRankDead instead of hanging.
func TestAnySourceReceiveUnwindsWhenNoSenderRemains(t *testing.T) {
	w := faultWorld(t, 2, 1)
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		if r.ID() == 0 {
			r.RecvAnyInts(7)
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("run error %v, want ErrRankDead", err)
	}
}

// TestAnySourceReceiveIsNotAFaultPoint checks that a doomed rank's death
// does not depend on the wall-clock order of its any-source arrivals.
// Rank 0's crash time falls between the virtual arrivals of rank 1's
// message (early) and rank 2's (late), and rank 2's is made to arrive
// first in wall time. Rank 0 must still take both before dying at its
// next send.
func TestAnySourceReceiveIsNotAFaultPoint(t *testing.T) {
	w := faultWorld(t, 3, 1)
	if err := w.ScheduleNodeCrash(0, 0.5); err != nil {
		t.Fatal(err)
	}
	late := make(chan struct{})
	received := 0
	err := runWithDeadline(t, w, 30*time.Second, func(r *Rank) error {
		switch r.ID() {
		case 0:
			for i := 0; i < 2; i++ {
				r.RecvAnyInts(7)
				received++
			}
			r.SendInts(1, 8, []int{0})
			return errors.New("send after the crash time succeeded")
		case 1:
			<-late
			r.SendInts(0, 7, []int{1})
			r.RecvInts(0, 8)
		case 2:
			r.ChargeCompute(1e9, 0) // one virtual second
			r.SendInts(0, 7, []int{2})
			close(late)
		}
		return nil
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("run error %v, want ErrRankDead", err)
	}
	if received != 2 {
		t.Fatalf("rank 0 took %d any-source messages before dying, want 2", received)
	}
}
