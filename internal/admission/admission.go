// Package admission is the cluster's overload-protection subsystem:
// everything that decides whether a query may run right now, with how
// much memory, at what degree of service, and for how long.
//
// Four cooperating mechanisms share one Controller:
//
//   - Admission gate: a weighted-slot semaphore with a bounded,
//     deadline-aware FIFO wait queue. Heavy queries (aggregations,
//     sorts) take more slots than cheap ones. When the queue is full,
//     or a query's context deadline would expire before its estimated
//     start, the query is shed immediately with a typed, retryable
//     OverloadError carrying a retry-after hint — failing fast beats
//     queueing a query to die (Rödiger et al.: flow control is what
//     keeps a saturated cluster at peak throughput instead of past it).
//
//   - Memory budget: per-query reservations against one cluster-wide
//     byte budget. Gather buffers and composer state charge the query's
//     Reservation as they grow; a small debt waits (bounded) for other
//     queries to release, a large debt aborts with a typed MemoryError,
//     so one giant aggregation can never OOM the process.
//
//   - Brownout ladder: a load controller watching queue depth and the
//     p95 admission wait. Under sustained pressure it raises the
//     degradation level to 1 — widen the bounded-staleness cache floor so
//     stale hits absorb reads, and close the MQO batching window — and
//     steps back down with hysteresis once the queue drains. The knobs
//     are pulled by the engine per decision point, so recovery needs no
//     callback fan-out: when the level drops, the next query simply sees
//     the restored defaults.
//
//   - Slow-query killer: a sweep that cancels (via context cause) any
//     tracked query exceeding KillMultiple × its weight × ClassBudget
//     of wall clock, relying on the engines' cooperative per-batch ctx
//     checks to stop the work.
//
// Every decision is observable: apuama_admission_* counters, the wait
// histogram and the brownout-level / reserved-bytes gauges land in the
// obs registry, and the engine annotates query spans with the queue
// wait and brownout level.
//
// All Controller methods are safe on a nil receiver (admission
// disabled), mirroring the nil-handle convention of internal/obs.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"apuama/internal/obs"
)

// Config configures a Controller. The zero value disables every
// mechanism; each one enables independently.
type Config struct {
	// MaxConcurrent is the admission gate's weighted slot capacity
	// (0 disables the gate). A query's weight — its crude cost class,
	// 1..4 — counts against it.
	MaxConcurrent int
	// MaxQueue bounds the wait queue; arrivals beyond it are shed
	// immediately (default 4 × MaxConcurrent).
	MaxQueue int
	// QueueTimeout bounds how long one query waits for a slot before it
	// is shed (default 1s).
	QueueTimeout time.Duration

	// MemoryBudget is the cluster-wide composition-memory budget in
	// bytes (0 disables accounting). Queries reserve against it as their
	// gather buffers and composer state grow.
	MemoryBudget int64
	// MemWaitMax bounds how long a small memory debt waits for other
	// queries to release before aborting (default 50ms).
	MemWaitMax time.Duration

	// Brownout enables the graceful-degradation ladder.
	Brownout bool
	// RaiseDepth is the queue depth that counts as overload pressure
	// (default max(2, MaxQueue/2)).
	RaiseDepth int
	// RaiseWait is the p95 admission wait that counts as overload
	// pressure (default 20ms).
	RaiseWait time.Duration
	// RaiseHold is the minimum time between level raises, so one burst
	// climbs the ladder a step at a time (default 5ms).
	RaiseHold time.Duration
	// Hold is how long the gate must stay calm (empty queue, low p95)
	// before the ladder steps one level down — the hysteresis that stops
	// the knobs flapping at the overload boundary (default 250ms).
	Hold time.Duration
	// BrownoutStale is the MaxStaleEpochs floor applied to cache lookups
	// at level >= 1, letting bounded-stale hits absorb read traffic
	// (default 16).
	BrownoutStale int64

	// BatchWindow enables the MQO batching window (0 disables): the
	// first arrival after a quiet period holds for up to this long so
	// the burst behind it lands inside one shared-scan pass. The window
	// releases early at BatchDepth arrivals, and switches itself off at
	// brownout level >= 1 — under overload, added latency is the wrong
	// trade.
	BatchWindow time.Duration
	// BatchDepth releases an open batching window as soon as this many
	// queries have joined it (default 8).
	BatchDepth int

	// KillMultiple × weight × ClassBudget is the wall-clock bound past
	// which the slow-query killer cancels a tracked query (0 disables).
	KillMultiple float64
	// ClassBudget is the per-weight-unit wall-clock budget the killer
	// multiplies (default 1s).
	ClassBudget time.Duration
}

// Enabled reports whether any mechanism is configured.
func (c Config) Enabled() bool {
	return c.MaxConcurrent > 0 || c.MemoryBudget > 0 || c.Brownout ||
		c.KillMultiple > 0 || c.BatchWindow > 0
}

// withDefaults resolves the defaultable knobs (the package's equivalent
// of core.Options.withDefaults).
func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.MemWaitMax <= 0 {
		c.MemWaitMax = 50 * time.Millisecond
	}
	if c.RaiseDepth <= 0 {
		c.RaiseDepth = c.MaxQueue / 2
		if c.RaiseDepth < 2 {
			c.RaiseDepth = 2
		}
	}
	if c.RaiseWait <= 0 {
		c.RaiseWait = 20 * time.Millisecond
	}
	if c.RaiseHold <= 0 {
		c.RaiseHold = 5 * time.Millisecond
	}
	if c.Hold <= 0 {
		c.Hold = 250 * time.Millisecond
	}
	if c.BrownoutStale <= 0 {
		c.BrownoutStale = 16
	}
	if c.ClassBudget <= 0 {
		c.ClassBudget = time.Second
	}
	if c.BatchDepth <= 0 {
		c.BatchDepth = 8
	}
	return c
}

// maxLevel is the top of the brownout ladder: 1 sets the stale floor and
// closes the batching window.
const maxLevel = 1

// sweepInterval paces the background sweeper (slow-query kills and
// brownout decay when no traffic triggers an evaluation).
const sweepInterval = 5 * time.Millisecond

// smallDebtDiv splits memory debts: a Grow of at most Budget/smallDebtDiv
// waits (bounded) for releases; anything larger aborts immediately.
const smallDebtDiv = 8

// waiter is one queued Acquire.
type waiter struct {
	weight int
	ready  chan struct{} // closed on admit (or close-time shed)
	err    error         // set before ready closes when the gate shut down
}

// waitSample is one admission-wait observation, timestamped so the
// brownout controller's p95 decays as samples age out of its window.
type waitSample struct {
	wait time.Duration
	at   time.Time
}

// Controller is the overload-protection subsystem. Build with New;
// a nil *Controller is valid and disables everything.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	closed     bool
	inUse      int // admitted weight currently holding slots
	queue      []*waiter
	avgService time.Duration // EWMA of admitted-query service time
	samples    [128]waitSample
	sampleN    int
	level      int
	forced     int // >= 0 pins the brownout level (tests/drills); -1 = auto
	lastChange time.Time

	admitted, queuedTotal, shed int64
	raises, clears              int64
	slowKills, memAborts        int64

	bmu          sync.Mutex
	batchOpen    bool
	batchJoined  int           // arrivals in the open window
	batchRelease chan struct{} // closed when the window releases
	batchTimer   *time.Timer
	batched      int64 // queries that held in a window
	batchWindows int64 // windows opened

	memMu   sync.Mutex
	memUsed int64
	memPeak int64
	memWake chan struct{} // closed-and-replaced on each release (broadcast)

	runMu   sync.Mutex
	runSeq  int64
	running map[int64]*trackedQuery

	stop chan struct{}
	wg   sync.WaitGroup

	reg          *obs.Registry
	mAdmitted    *obs.Counter
	mQueued      *obs.Counter
	mMemAborts   *obs.Counter
	mSlowKills   *obs.Counter
	mWait        *obs.Histogram
	mLevel       *obs.Gauge
	mMemReserved *obs.Gauge
	mBatched     *obs.Counter
	mBatchWins   *obs.Counter
}

// trackedQuery is one running query as the slow-query killer sees it.
type trackedQuery struct {
	start  time.Time
	budget time.Duration
	cancel context.CancelCauseFunc
}

// New builds a Controller that mirrors every admission decision into reg
// under the apuama_admission_* names (nil mirrors nothing); a zero
// (disabled) config returns nil, which every method treats as "admission
// off".
func New(cfg Config, reg *obs.Registry) *Controller {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:     cfg,
		forced:  -1,
		running: map[int64]*trackedQuery{},
		stop:    make(chan struct{}),

		reg:          reg,
		mAdmitted:    reg.Counter(obs.MAdmissionAdmitted),
		mQueued:      reg.Counter(obs.MAdmissionQueued),
		mMemAborts:   reg.Counter(obs.MAdmissionMemAborts),
		mSlowKills:   reg.Counter(obs.MAdmissionSlowKills),
		mWait:        reg.Histogram(obs.MAdmissionWait),
		mLevel:       reg.Gauge(obs.MAdmissionBrownout),
		mMemReserved: reg.Gauge(obs.MAdmissionMemReserved),
		mBatched:     reg.Counter(obs.MAdmissionBatched),
		mBatchWins:   reg.Counter(obs.MAdmissionBatchWins),
	}
	if cfg.KillMultiple > 0 || cfg.Brownout {
		c.wg.Add(1)
		go c.sweeper()
	}
	return c
}

// Close stops the background sweeper and sheds every queued waiter.
// Safe to call more than once and on nil.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, w := range c.queue {
		w.err = errClosed
		close(w.ready)
	}
	c.queue = nil
	c.mu.Unlock()
	c.bmu.Lock()
	c.releaseBatchLocked()
	c.bmu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

var errClosed = errors.New("admission: controller closed")

// Ticket is one admitted query's slot claim. Release it exactly once
// when the query finishes (success or failure). A nil Ticket (gate
// disabled) is a valid no-op.
type Ticket struct {
	c        *Controller
	weight   int
	start    time.Time
	wait     time.Duration
	released bool
}

// Wait reports how long the query queued before admission.
func (t *Ticket) Wait() time.Duration {
	if t == nil {
		return 0
	}
	return t.wait
}

// Release frees the slots and feeds the gate's service-time estimate.
func (t *Ticket) Release() {
	if t == nil || t.released {
		return
	}
	t.released = true
	c := t.c
	now := time.Now()
	c.mu.Lock()
	c.inUse -= t.weight
	c.noteServiceLocked(now.Sub(t.start))
	c.wakeLocked()
	c.evaluateLocked(now)
	c.mu.Unlock()
}

// Acquire claims weight slots, queueing (bounded, deadline-aware) when
// the gate is full. It returns a nil Ticket immediately when the gate is
// disabled. Shed queries return a typed *OverloadError wrapping
// ErrOverloaded; they did no work and are safe to retry after the
// error's RetryAfter hint.
func (c *Controller) Acquire(ctx context.Context, weight int) (*Ticket, error) {
	if c == nil || c.cfg.MaxConcurrent <= 0 {
		return nil, nil
	}
	if weight < 1 {
		weight = 1
	}
	if weight > c.cfg.MaxConcurrent {
		weight = c.cfg.MaxConcurrent
	}
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	// Fast path: slots free and nobody queued ahead (FIFO fairness — a
	// light query must not overtake a heavy one already waiting).
	if len(c.queue) == 0 && c.inUse+weight <= c.cfg.MaxConcurrent {
		c.inUse += weight
		c.admitted++
		c.noteWaitLocked(0, now)
		c.evaluateLocked(now)
		c.mu.Unlock()
		c.mAdmitted.Inc()
		return &Ticket{c: c, weight: weight, start: now}, nil
	}
	est := c.estimateWaitLocked(weight)
	if len(c.queue) >= c.cfg.MaxQueue {
		c.shedLocked(now)
		c.mu.Unlock()
		c.countShed("queue-full")
		return nil, &OverloadError{RetryAfter: est, Reason: "queue-full"}
	}
	// Deadline-aware shedding: a query whose deadline would expire
	// before its estimated start is refused now, not queued to die.
	if dl, ok := ctx.Deadline(); ok && now.Add(est).After(dl) {
		c.shedLocked(now)
		c.mu.Unlock()
		c.countShed("deadline")
		return nil, &OverloadError{RetryAfter: est, Reason: "deadline"}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.queuedTotal++
	c.evaluateLocked(now)
	c.mu.Unlock()
	c.mQueued.Inc()

	timer := time.NewTimer(c.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		admitAt := time.Now()
		wait := admitAt.Sub(now)
		c.mu.Lock()
		c.noteWaitLocked(wait, admitAt)
		c.evaluateLocked(admitAt)
		c.mu.Unlock()
		return &Ticket{c: c, weight: weight, start: admitAt, wait: wait}, nil
	case <-ctx.Done():
		if c.abandon(w) {
			c.countShed("deadline")
			return nil, fmt.Errorf("%w while queued: %v",
				&OverloadError{RetryAfter: est, Reason: "deadline"}, ctx.Err())
		}
		// Admitted concurrently with the cancellation: give the slot back.
		<-w.ready
		c.giveBack(w)
		return nil, ctx.Err()
	case <-timer.C:
		if c.abandon(w) {
			c.countShed("queue-timeout")
			return nil, &OverloadError{RetryAfter: est, Reason: "queue-timeout"}
		}
		// Admitted concurrently with the timeout: give the slot back. To
		// the caller this is still the bounded wait running out, so it
		// sheds typed and retryable, not with a bare context error.
		<-w.ready
		c.giveBack(w)
		c.mu.Lock()
		c.shedLocked(time.Now())
		c.mu.Unlock()
		c.countShed("queue-timeout")
		return nil, &OverloadError{RetryAfter: est, Reason: "queue-timeout"}
	}
}

// abandon removes a still-queued waiter; false means it was already
// admitted (its ready channel is closed or about to be).
func (c *Controller) abandon(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.shedLocked(time.Now())
			return true
		}
	}
	return false
}

// giveBack returns the slots of a waiter that was admitted after its
// caller had already given up (no service-time sample: it ran nothing).
func (c *Controller) giveBack(w *waiter) {
	if w.err != nil {
		return // close-time shed: no slots were granted
	}
	c.mu.Lock()
	c.inUse -= w.weight
	c.wakeLocked()
	c.evaluateLocked(time.Now())
	c.mu.Unlock()
}

// shedLocked bumps the shed counter and re-evaluates the ladder (a shed
// is pressure evidence).
func (c *Controller) shedLocked(now time.Time) { c.shed++; c.evaluateLocked(now) }

// countShed resolves the labeled shed counter off the hot path (the
// label set is bounded by the three shed reasons).
func (c *Controller) countShed(reason string) {
	c.reg.Counter(obs.Labeled(obs.MAdmissionShed, "reason", reason)).Inc()
}

// wakeLocked admits queued waiters in FIFO order while slots fit.
func (c *Controller) wakeLocked() {
	for len(c.queue) > 0 && c.inUse+c.queue[0].weight <= c.cfg.MaxConcurrent {
		w := c.queue[0]
		c.queue = c.queue[1:]
		c.inUse += w.weight
		c.admitted++
		c.mAdmitted.Inc()
		close(w.ready)
	}
}

// estimateWaitLocked is the retry-after / deadline-shed estimate: the
// EWMA service time scaled by the weight already admitted or queued
// ahead, over the gate's capacity.
func (c *Controller) estimateWaitLocked(weight int) time.Duration {
	avg := c.avgService
	if avg <= 0 {
		avg = 2 * time.Millisecond
	}
	pending := c.inUse + weight
	for _, w := range c.queue {
		pending += w.weight
	}
	est := time.Duration(float64(avg) * float64(pending) / float64(c.cfg.MaxConcurrent))
	if est < time.Millisecond {
		est = time.Millisecond
	}
	return est
}

// noteServiceLocked feeds the service-time EWMA (α = 1/4).
func (c *Controller) noteServiceLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if c.avgService == 0 {
		c.avgService = d
		return
	}
	c.avgService += (d - c.avgService) / 4
}

// noteWaitLocked records one admission wait for the p95 window and the
// exported histogram.
func (c *Controller) noteWaitLocked(d time.Duration, now time.Time) {
	c.samples[c.sampleN%len(c.samples)] = waitSample{wait: d, at: now}
	c.sampleN++
	c.mWait.Observe(d)
}

// waitP95Locked computes the p95 admission wait over the recent sample
// window (4 × Hold), so pressure evidence decays once traffic calms.
func (c *Controller) waitP95Locked(now time.Time) time.Duration {
	cutoff := now.Add(-4 * c.cfg.Hold)
	var ws []time.Duration
	for i := range c.samples {
		s := c.samples[i]
		if !s.at.IsZero() && s.at.After(cutoff) {
			ws = append(ws, s.wait)
		}
	}
	if len(ws) == 0 {
		return 0
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	idx := len(ws) * 95 / 100
	if idx >= len(ws) {
		idx = len(ws) - 1
	}
	return ws[idx]
}

// evaluateLocked runs the brownout ladder's transition rule: raise one
// level per RaiseHold while pressure holds (queue depth or p95 wait
// above threshold), step one level down only after Hold of calm — the
// hysteresis that keeps the knobs from flapping.
func (c *Controller) evaluateLocked(now time.Time) {
	if !c.cfg.Brownout || c.forced >= 0 || c.closed {
		return
	}
	depth := len(c.queue)
	p95 := c.waitP95Locked(now)
	hot := depth >= c.cfg.RaiseDepth || (p95 > 0 && p95 >= c.cfg.RaiseWait)
	switch {
	case hot && c.level < maxLevel && now.Sub(c.lastChange) >= c.cfg.RaiseHold:
		c.setLevelLocked(c.level+1, now)
		c.raises++
	case !hot && c.level > 0 && depth == 0 && now.Sub(c.lastChange) >= c.cfg.Hold:
		c.setLevelLocked(c.level-1, now)
		c.clears++
	}
}

func (c *Controller) setLevelLocked(n int, now time.Time) {
	c.level = n
	c.lastChange = now
	c.mLevel.Set(int64(n))
}

// ForceLevel pins the brownout ladder at level n (determinism tests and
// operator drills); ForceLevel(-1) returns it to automatic control.
func (c *Controller) ForceLevel(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if n > maxLevel {
		n = maxLevel
	}
	c.forced = n
	if n >= 0 {
		c.setLevelLocked(n, time.Now())
	}
	c.mu.Unlock()
}

// Level reports the current brownout level (0 = full service).
func (c *Controller) Level() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// StaleFloor is the brownout floor on the cache's MaxStaleEpochs bound
// (0 = no floor): at level >= 1 bounded-stale cache hits absorb read
// traffic that would otherwise queue. The engine consults it per query,
// so the floor both takes effect and lifts without any state pushed
// anywhere.
func (c *Controller) StaleFloor() int64 {
	if c != nil && c.Level() >= 1 {
		return c.cfg.BrownoutStale
	}
	return 0
}

// BatchGate holds a query in the MQO batching window so concurrent
// arrivals overlap inside one shared-scan pass. The first arrival after
// a quiet period opens a window and everyone holds until it releases —
// at BatchWindow elapsed, at BatchDepth arrivals, or when the caller's
// context ends (the query proceeds either way; the gate only delays,
// it never refuses). Disabled on nil controllers, when BatchWindow is
// unset, and at brownout level >= 1: under overload the queue itself
// provides the overlap, and deliberate latency would feed the ladder's
// own pressure signal.
func (c *Controller) BatchGate(ctx context.Context) {
	if c == nil || c.cfg.BatchWindow <= 0 || c.Level() >= 1 {
		return
	}
	c.bmu.Lock()
	if c.closedBatchLocked() {
		c.bmu.Unlock()
		return
	}
	if !c.batchOpen {
		c.batchOpen = true
		c.batchJoined = 0
		rel := make(chan struct{})
		c.batchRelease = rel
		c.batchWindows++
		c.mBatchWins.Inc()
		c.batchTimer = time.AfterFunc(c.cfg.BatchWindow, func() {
			c.bmu.Lock()
			if c.batchRelease == rel {
				c.releaseBatchLocked()
			}
			c.bmu.Unlock()
		})
	}
	c.batchJoined++
	c.batched++
	c.mBatched.Inc()
	rel := c.batchRelease
	if c.batchJoined >= c.cfg.BatchDepth {
		c.releaseBatchLocked()
		c.bmu.Unlock()
		return
	}
	c.bmu.Unlock()
	select {
	case <-rel:
	case <-ctx.Done():
	}
}

// closedBatchLocked samples the controller's closed flag (held under
// c.mu) without ordering bmu inside mu: a racy read is fine here — the
// only consequence of a stale false is one last, timer-bounded window.
func (c *Controller) closedBatchLocked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// releaseBatchLocked (bmu held) releases the open window's holders.
func (c *Controller) releaseBatchLocked() {
	if !c.batchOpen {
		return
	}
	c.batchOpen = false
	if c.batchTimer != nil {
		c.batchTimer.Stop()
		c.batchTimer = nil
	}
	close(c.batchRelease)
	c.batchRelease = nil
}

// sweeper drives the clocks traffic doesn't: slow-query kills and
// brownout decay after the last release (without it, a drained gate
// would stay browned out until the next query).
func (c *Controller) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if c.cfg.KillMultiple > 0 {
			c.sweep(time.Now())
		}
		c.mu.Lock()
		c.evaluateLocked(time.Now())
		c.mu.Unlock()
	}
}

// Track registers a query with the slow-query killer: the returned
// context is cancelled with ErrSlowQuery as its cause once the query
// exceeds KillMultiple × weight × ClassBudget of wall clock. The
// returned stop function must be called when the query ends. With the
// killer disabled both are pass-throughs.
func (c *Controller) Track(ctx context.Context, weight int) (context.Context, func()) {
	if c == nil || c.cfg.KillMultiple <= 0 {
		return ctx, func() {}
	}
	if weight < 1 {
		weight = 1
	}
	ctx, cancel := context.WithCancelCause(ctx)
	budget := time.Duration(c.cfg.KillMultiple * float64(weight) * float64(c.cfg.ClassBudget))
	c.runMu.Lock()
	c.runSeq++
	id := c.runSeq
	c.running[id] = &trackedQuery{start: time.Now(), budget: budget, cancel: cancel}
	c.runMu.Unlock()
	return ctx, func() {
		c.runMu.Lock()
		delete(c.running, id)
		c.runMu.Unlock()
		cancel(nil)
	}
}

// sweep cancels every tracked query past its wall-clock bound.
func (c *Controller) sweep(now time.Time) {
	var victims []*trackedQuery
	c.runMu.Lock()
	for id, q := range c.running {
		if now.Sub(q.start) > q.budget {
			victims = append(victims, q)
			delete(c.running, id)
		}
	}
	c.runMu.Unlock()
	if len(victims) == 0 {
		return
	}
	// Count the kills before cancelling: a caller woken by its context
	// already finds its kill in Snapshot.
	c.mu.Lock()
	c.slowKills += int64(len(victims))
	c.mu.Unlock()
	c.mSlowKills.Add(int64(len(victims)))
	for _, q := range victims {
		q.cancel(fmt.Errorf("%w: ran %v against a %v wall-clock bound",
			ErrSlowQuery, now.Sub(q.start).Round(time.Millisecond), q.budget))
	}
}

// Stats is a snapshot of the subsystem's counters.
type Stats struct {
	Admitted       int64 // queries granted slots (fast path or after queueing)
	Queued         int64 // queries that had to wait for a slot
	Shed           int64 // queries refused with ErrOverloaded
	MemAborts      int64 // reservations aborted with ErrMemoryBudget
	SlowKills      int64 // queries cancelled by the slow-query killer
	BrownoutLevel  int   // current ladder level (0 = full service)
	BrownoutRaises int64 // level raises since start
	BrownoutClears int64 // level step-downs since start
	MemReserved    int64 // bytes currently reserved
	MemPeak        int64 // high-water mark of reserved bytes
	InUse          int   // admitted weight currently holding slots
	QueueDepth     int   // waiters currently queued
	Batched        int64 // queries held in an MQO batching window
	BatchWindows   int64 // batching windows opened
}

// Snapshot returns the subsystem's counters (zero value on nil).
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := Stats{
		Admitted:       c.admitted,
		Queued:         c.queuedTotal,
		Shed:           c.shed,
		MemAborts:      c.memAborts,
		SlowKills:      c.slowKills,
		BrownoutLevel:  c.level,
		BrownoutRaises: c.raises,
		BrownoutClears: c.clears,
		InUse:          c.inUse,
		QueueDepth:     len(c.queue),
	}
	c.mu.Unlock()
	c.memMu.Lock()
	s.MemReserved = c.memUsed
	s.MemPeak = c.memPeak
	c.memMu.Unlock()
	c.bmu.Lock()
	s.Batched = c.batched
	s.BatchWindows = c.batchWindows
	c.bmu.Unlock()
	return s
}
