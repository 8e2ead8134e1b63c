package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apuama/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

func TestDisabledControllerIsNil(t *testing.T) {
	c := New(Config{}, nil)
	if c != nil {
		t.Fatalf("zero config should build a nil controller")
	}
	// Every method must be a safe no-op on nil.
	tk, err := c.Acquire(context.Background(), 3)
	if tk != nil || err != nil {
		t.Fatalf("nil Acquire = (%v, %v), want (nil, nil)", tk, err)
	}
	tk.Release()
	ctx, done := c.Track(context.Background(), 1)
	if ctx == nil {
		t.Fatalf("nil Track must pass the context through")
	}
	done()
	res := c.Reserve(context.Background())
	if err := res.Grow(1 << 30); err != nil {
		t.Fatalf("nil reservation Grow: %v", err)
	}
	res.Release()
	if c.Level() != 0 || c.StaleFloor() != 0 {
		t.Fatalf("nil brownout knobs must report full service")
	}
	c.ForceLevel(maxLevel)
	c.Close()
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil Snapshot = %+v, want zero", s)
	}
}

func TestGateAdmitsUpToCapacityAndQueuesFIFO(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, MaxQueue: 8}, nil)
	defer c.Close()
	ctx := context.Background()

	t1, err := c.Acquire(ctx, 1)
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	t2, err := c.Acquire(ctx, 1)
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}

	// The third acquire must queue until a release.
	got := make(chan error, 1)
	go func() {
		tk, err := c.Acquire(ctx, 1)
		if err == nil {
			tk.Release()
		}
		got <- err
	}()
	waitFor(t, time.Second, func() bool { return c.Snapshot().QueueDepth == 1 }, "third acquire queued")
	select {
	case err := <-got:
		t.Fatalf("third acquire returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	t1.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	t2.Release()

	s := c.Snapshot()
	if s.Admitted != 3 || s.Queued != 1 || s.Shed != 0 {
		t.Fatalf("stats = %+v, want 3 admitted / 1 queued / 0 shed", s)
	}
	if s.InUse != 0 {
		t.Fatalf("all released but InUse = %d", s.InUse)
	}
}

func TestWeightsCountAgainstCapacity(t *testing.T) {
	c := New(Config{MaxConcurrent: 4, MaxQueue: 4}, nil)
	defer c.Close()
	ctx := context.Background()
	heavy, err := c.Acquire(ctx, 3)
	if err != nil {
		t.Fatalf("heavy acquire: %v", err)
	}
	light, err := c.Acquire(ctx, 1)
	if err != nil {
		t.Fatalf("light acquire: %v", err)
	}
	if got := c.Snapshot().InUse; got != 4 {
		t.Fatalf("InUse = %d, want 4", got)
	}
	// A third query of any weight must queue now.
	done := make(chan struct{})
	go func() {
		tk, err := c.Acquire(ctx, 1)
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		tk.Release()
		close(done)
	}()
	waitFor(t, time.Second, func() bool { return c.Snapshot().QueueDepth == 1 }, "acquire queued")
	heavy.Release()
	<-done
	light.Release()
}

func TestQueueFullShedsTypedRetryable(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute}, nil)
	defer c.Close()
	ctx := context.Background()
	tk, err := c.Acquire(ctx, 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer tk.Release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fills the queue
		defer wg.Done()
		tk, err := c.Acquire(ctx, 1)
		if err == nil {
			tk.Release()
		}
	}()
	waitFor(t, time.Second, func() bool { return c.Snapshot().QueueDepth == 1 }, "queue filled")

	_, err = c.Acquire(ctx, 1)
	if err == nil {
		t.Fatalf("queue-full acquire succeeded")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error %v does not match ErrOverloaded", err)
	}
	if !Retryable(err) {
		t.Fatalf("shed error must be retryable")
	}
	if RetryAfter(err) <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-full" {
		t.Fatalf("shed error = %v, want queue-full reason", err)
	}
	if got := c.Snapshot().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	tk.Release()
	wg.Wait()
}

func TestDeadlineAwareShedding(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8}, nil)
	defer c.Close()
	tk, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer tk.Release()

	// Teach the gate a long service time so the wait estimate dwarfs the
	// deadline.
	c.mu.Lock()
	c.avgService = time.Second
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Acquire(ctx, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-doomed acquire = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "deadline" {
		t.Fatalf("reason = %v, want deadline", err)
	}
	// The whole point: the query was refused immediately, not queued to die.
	if waited := time.Since(start); waited > 50*time.Millisecond {
		t.Fatalf("deadline shed took %v; must be immediate", waited)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 10 * time.Millisecond}, nil)
	defer c.Close()
	tk, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer tk.Release()
	_, err = c.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("timed-out acquire = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-timeout" {
		t.Fatalf("reason = %v, want queue-timeout", err)
	}
}

func TestMemoryBudgetGrowAndAbort(t *testing.T) {
	c := New(Config{MemoryBudget: 1000, MemWaitMax: 5 * time.Millisecond}, nil)
	defer c.Close()
	ctx := context.Background()

	r1 := c.Reserve(ctx)
	if err := r1.Grow(900); err != nil {
		t.Fatalf("grow within budget: %v", err)
	}
	// Large debt (> budget/8) that does not fit: immediate typed abort.
	r2 := c.Reserve(ctx)
	err := r2.Grow(500)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("large-debt grow = %v, want ErrMemoryBudget", err)
	}
	if Retryable(err) {
		t.Fatalf("memory aborts must not be retryable")
	}
	var me *MemoryError
	if !errors.As(err, &me) || me.Requested != 500 || me.Budget != 1000 {
		t.Fatalf("memory error = %+v", err)
	}
	// Small debt: waits MemWaitMax, then aborts (nobody releases).
	start := time.Now()
	if err := r2.Grow(120); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("small-debt grow = %v, want bounded-wait abort", err)
	} else if time.Since(start) < 4*time.Millisecond {
		t.Fatalf("small debt aborted without waiting")
	}
	// A release unblocks a waiting small debt.
	unblocked := make(chan error, 1)
	r3 := c.Reserve(ctx)
	go func() { unblocked <- r3.Grow(120) }()
	time.Sleep(time.Millisecond)
	r1.Release()
	if err := <-unblocked; err != nil {
		t.Fatalf("small debt after release: %v", err)
	}
	s := c.Snapshot()
	if s.MemReserved != 120 {
		t.Fatalf("MemReserved = %d, want 120", s.MemReserved)
	}
	if s.MemPeak < 900 || s.MemPeak > 1000 {
		t.Fatalf("MemPeak = %d, want within (900, 1000]", s.MemPeak)
	}
	if s.MemAborts != 2 {
		t.Fatalf("MemAborts = %d, want 2", s.MemAborts)
	}
	r3.Release()
	r2.Release()
	if got := c.Snapshot().MemReserved; got != 0 {
		t.Fatalf("MemReserved after releases = %d", got)
	}
}

func TestMemoryBudgetShrinkWakesGrow(t *testing.T) {
	c := New(Config{MemoryBudget: 1000, MemWaitMax: time.Second}, nil)
	defer c.Close()
	ctx := context.Background()
	r1 := c.Reserve(ctx)
	if err := r1.Grow(950); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	r2 := c.Reserve(ctx)
	go func() { unblocked <- r2.Grow(120) }()
	time.Sleep(time.Millisecond)
	r1.Shrink(400)
	if err := <-unblocked; err != nil {
		t.Fatalf("small debt after shrink: %v", err)
	}
	if r1.Held() != 550 {
		t.Fatalf("held after shrink = %d, want 550", r1.Held())
	}
	r1.Shrink(10_000) // more than held: returns what is held, no more
	if r1.Held() != 0 || c.Snapshot().MemReserved != 120 {
		t.Fatalf("held %d, reserved %d; want 0 and 120", r1.Held(), c.Snapshot().MemReserved)
	}
	r2.Release()
}

func TestMemoryBudgetNeverExceededUnderConcurrency(t *testing.T) {
	const budget = 10_000
	c := New(Config{MemoryBudget: budget, MemWaitMax: 2 * time.Millisecond}, nil)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := c.Reserve(context.Background())
				for j := 0; j < 4; j++ {
					if err := r.Grow(budget / 16); err != nil {
						break
					}
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
	if s := c.Snapshot(); s.MemPeak > budget {
		t.Fatalf("MemPeak %d exceeded the %d budget", s.MemPeak, budget)
	}
}

func TestBrownoutLadderRaisesAndClearsWithHysteresis(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{
		MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: time.Minute,
		Brownout: true, RaiseDepth: 2, RaiseWait: time.Hour, // depth-driven only
		RaiseHold: time.Millisecond, Hold: 20 * time.Millisecond,
	}, reg)
	defer c.Close()
	ctx := context.Background()
	tk, err := c.Acquire(ctx, 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Pile up a queue to push the ladder to its top. Each waiter releases
	// as soon as it is admitted, so the queue drains in a chain once the
	// head ticket goes back.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Acquire(ctx, 1)
			if err != nil {
				t.Errorf("queued acquire %d: %v", i, err)
				return
			}
			tk.Release()
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool { return c.Level() == maxLevel }, "ladder reached max level")
	if c.StaleFloor() != 16 {
		t.Fatalf("StaleFloor at max level = %d, want default 16", c.StaleFloor())
	}
	if reg.Gauge(obs.MAdmissionBrownout).Value() != int64(maxLevel) {
		t.Fatalf("brownout gauge = %d, want %d", reg.Gauge(obs.MAdmissionBrownout).Value(), maxLevel)
	}

	// Drain: release the head ticket, let the chain empty the queue, and
	// wait for the ladder to walk back down.
	tk.Release()
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return c.Level() == 0 }, "ladder stepped back to 0")
	if c.StaleFloor() != 0 {
		t.Fatalf("knobs not restored after drain")
	}
	s := c.Snapshot()
	if s.BrownoutRaises < int64(maxLevel) || s.BrownoutClears < int64(maxLevel) {
		t.Fatalf("raises/clears = %d/%d, want >= %d each", s.BrownoutRaises, s.BrownoutClears, maxLevel)
	}
}

func TestBrownoutStepDownIsGradual(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, Brownout: true, Hold: 15 * time.Millisecond}, nil)
	defer c.Close()
	c.ForceLevel(maxLevel)
	c.ForceLevel(-1) // back to automatic, starting from the top
	// Each step down needs a full Hold of calm: the ladder must pass
	// through the intermediate levels, not jump to 0.
	waitFor(t, time.Second, func() bool { return c.Level() == maxLevel-1 }, "first step down")
	if c.Level() != maxLevel-1 {
		t.Fatalf("ladder skipped levels")
	}
	waitFor(t, time.Second, func() bool { return c.Level() == 0 }, "fully restored")
}

func TestForceLevelPinsLadder(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, Brownout: true, Hold: time.Millisecond}, nil)
	defer c.Close()
	c.ForceLevel(1)
	time.Sleep(20 * time.Millisecond) // sweeper must not step a pinned ladder down
	if c.Level() != 1 {
		t.Fatalf("forced level drifted to %d", c.Level())
	}
	if c.StaleFloor() == 0 {
		t.Fatalf("level-1 knobs wrong: floor=%d", c.StaleFloor())
	}
	c.ForceLevel(-1)
	waitFor(t, time.Second, func() bool { return c.Level() == 0 }, "auto control resumed")
}

func TestSlowQueryKiller(t *testing.T) {
	c := New(Config{KillMultiple: 1, ClassBudget: 10 * time.Millisecond}, nil)
	defer c.Close()
	ctx, done := c.Track(context.Background(), 1)
	defer done()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("slow query was never killed")
	}
	if !errors.Is(context.Cause(ctx), ErrSlowQuery) {
		t.Fatalf("cancel cause = %v, want ErrSlowQuery", context.Cause(ctx))
	}
	if got := c.Snapshot().SlowKills; got != 1 {
		t.Fatalf("SlowKills = %d, want 1", got)
	}

	// A fast query is never touched and its done() deregisters it.
	ctx2, done2 := c.Track(context.Background(), 1)
	done2()
	time.Sleep(30 * time.Millisecond)
	if errors.Is(context.Cause(ctx2), ErrSlowQuery) {
		t.Fatalf("finished query was killed after deregistering")
	}
	if got := c.Snapshot().SlowKills; got != 1 {
		t.Fatalf("SlowKills after fast query = %d, want still 1", got)
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	cases := []error{
		&OverloadError{RetryAfter: 7 * time.Millisecond, Reason: "queue-full"},
		&MemoryError{Requested: 512, Held: 64, Budget: 1024},
		fmt.Errorf("composer: %w", ErrSlowQuery),
	}
	sentinels := []error{ErrOverloaded, ErrMemoryBudget, ErrSlowQuery}
	for i, err := range cases {
		code, ra := Code(err)
		if code == "" {
			t.Fatalf("case %d: no wire code for %v", i, err)
		}
		back := Remote(code, err.Error(), ra)
		if back == nil {
			t.Fatalf("case %d: Remote(%q) = nil", i, code)
		}
		if !errors.Is(back, sentinels[i]) {
			t.Fatalf("case %d: reconstructed %v does not match sentinel", i, back)
		}
		if back.Error() != err.Error() {
			t.Fatalf("case %d: message %q != original %q", i, back.Error(), err.Error())
		}
	}
	if code, _ := Code(errors.New("plain")); code != "" {
		t.Fatalf("plain error got wire code %q", code)
	}
	if Remote("no-such-code", "x", 0) != nil {
		t.Fatalf("unknown code must decode to nil")
	}
	// The retry-after hint survives the round trip.
	back := Remote(CodeOverloaded, "msg", 9*time.Millisecond)
	if RetryAfter(back) != 9*time.Millisecond {
		t.Fatalf("RetryAfter lost in transit: %v", RetryAfter(back))
	}
}

func TestCloseShedsQueuedWaiters(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute}, nil)
	tk, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), 1)
		errs <- err
	}()
	waitFor(t, time.Second, func() bool { return c.Snapshot().QueueDepth == 1 }, "waiter queued")
	c.Close()
	if err := <-errs; err == nil {
		t.Fatalf("queued waiter survived Close")
	}
	tk.Release() // must not panic after Close
	if _, err := c.Acquire(context.Background(), 1); err == nil {
		t.Fatalf("Acquire after Close succeeded")
	}
}

func TestGateUnderConcurrentLoadNeverExceedsCapacity(t *testing.T) {
	const cap = 4
	c := New(Config{MaxConcurrent: cap, MaxQueue: 64, QueueTimeout: time.Minute}, nil)
	defer c.Close()
	var inUse, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := 1 + (g+i)%2
				tk, err := c.Acquire(context.Background(), w)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				now := inUse.Add(int64(w))
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				inUse.Add(int64(-w))
				tk.Release()
			}
		}(g)
	}
	wg.Wait()
	if peak.Load() > cap {
		t.Fatalf("observed %d weight in flight, capacity %d", peak.Load(), cap)
	}
	if got := c.Snapshot().InUse; got != 0 {
		t.Fatalf("InUse after drain = %d", got)
	}
}
