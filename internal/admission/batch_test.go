package admission

import (
	"context"
	"sync"
	"testing"
	"time"

	"apuama/internal/obs"
)

// TestBatchGateReleasesAtDepth: once BatchDepth arrivals have joined,
// the window releases immediately — a full batch never waits out the
// clock.
func TestBatchGateReleasesAtDepth(t *testing.T) {
	c := New(Config{BatchWindow: time.Hour, BatchDepth: 3}, nil)
	if c == nil {
		t.Fatal("BatchWindow alone must enable the controller")
	}
	defer c.Close()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.BatchGate(context.Background())
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a full batch never released before the window expired")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("depth release took %v, want well under the 1h window", el)
	}
	st := c.Snapshot()
	if st.Batched != 3 || st.BatchWindows != 1 {
		t.Fatalf("stats = %d batched / %d windows, want 3 / 1", st.Batched, st.BatchWindows)
	}
}

// TestBatchGateReleasesAtWindow: a lone arrival holds only until the
// window expires, then proceeds; the next arrival opens a new window.
func TestBatchGateReleasesAtWindow(t *testing.T) {
	c := New(Config{BatchWindow: 5 * time.Millisecond, BatchDepth: 100}, nil)
	defer c.Close()
	c.BatchGate(context.Background())
	c.BatchGate(context.Background())
	st := c.Snapshot()
	if st.Batched != 2 || st.BatchWindows != 2 {
		t.Fatalf("stats = %d batched / %d windows, want 2 / 2", st.Batched, st.BatchWindows)
	}
}

// TestBatchGateContextCancel: a held arrival whose context ends
// proceeds without waiting for the window.
func TestBatchGateContextCancel(t *testing.T) {
	c := New(Config{BatchWindow: time.Hour, BatchDepth: 100}, nil)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan struct{})
	go func() {
		c.BatchGate(ctx)
		close(released)
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case <-released:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled holder never released")
	}
}

// TestBatchGateOffUnderBrownout: at brownout level >= 1 the gate is a
// pass-through — deliberate batching latency would feed the pressure
// signal it is reacting to.
func TestBatchGateOffUnderBrownout(t *testing.T) {
	c := New(Config{BatchWindow: time.Hour, BatchDepth: 100, Brownout: true}, nil)
	defer c.Close()
	c.ForceLevel(1)
	start := time.Now()
	c.BatchGate(context.Background())
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("browned-out gate held for %v, want immediate", el)
	}
	if st := c.Snapshot(); st.Batched != 0 {
		t.Fatalf("browned-out gate recorded %d batched arrivals, want 0", st.Batched)
	}
}

// TestBatchGateCloseReleases: Close releases every held arrival and
// later calls pass through.
func TestBatchGateCloseReleases(t *testing.T) {
	c := New(Config{BatchWindow: time.Hour, BatchDepth: 100}, nil)
	released := make(chan struct{})
	go func() {
		c.BatchGate(context.Background())
		close(released)
	}()
	waitFor(t, 10*time.Second, func() bool { return c.Snapshot().Batched == 1 }, "holder never joined")
	c.Close()
	select {
	case <-released:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never released the held arrival")
	}
	c.BatchGate(context.Background()) // must not hang on a closed controller
}

// TestBatchGateMetricsMirrored: the obs counters track the snapshot.
func TestBatchGateMetricsMirrored(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{BatchWindow: time.Hour, BatchDepth: 2}, reg)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.BatchGate(context.Background()) }()
	}
	wg.Wait()
	st := c.Snapshot()
	if got := reg.Counter(obs.MAdmissionBatched).Value(); got != st.Batched {
		t.Fatalf("mirror %s = %d, snapshot %d", obs.MAdmissionBatched, got, st.Batched)
	}
	if got := reg.Counter(obs.MAdmissionBatchWins).Value(); got != st.BatchWindows {
		t.Fatalf("mirror %s = %d, snapshot %d", obs.MAdmissionBatchWins, got, st.BatchWindows)
	}
}
