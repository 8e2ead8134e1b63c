// Package cluster implements the C-JDBC-equivalent database-cluster
// middleware the paper builds on: a controller that presents a set of
// replicated black-box engines as one virtual database, totally ordering
// writes across replicas (Scheduler), balancing reads to the
// least-loaded backend (Load Balancer), and pooling backend connections.
//
// On its own the controller provides exactly what C-JDBC provides:
// inter-query parallelism and replica consistency — the paper's baseline.
// The Apuama engine (internal/core) slots between the controller and the
// nodes as a Backend implementation, adding intra-query parallelism
// without changing this package (mirroring "no source code was changed
// in C-JDBC").
//
// Beyond the baseline, the controller carries a resilience layer: each
// backend sits behind a circuit breaker. A crash or a run of transient
// failures trips the breaker open (the backend leaves rotation), a
// background probe half-opens it, and a successful probe replays the
// missed writes from the recovery log and re-admits the replica — no
// manual Recover call required.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sql"
)

// ErrBackendDown is returned by a Backend whose node is unreachable or
// crashed. The controller reacts like C-JDBC: it trips the backend's
// breaker and retries reads elsewhere; writes proceed on the surviving
// replicas.
var ErrBackendDown = errors.New("backend down")

// ErrTransient marks a failure that is expected to clear on its own (a
// dropped connection, an overloaded node, an injected flaky fault).
// Unlike ErrBackendDown it is retried in place with bounded exponential
// backoff before the breaker gives up on the backend.
var ErrTransient = errors.New("transient backend error")

// Backend is one replica as seen by the controller: something that
// executes reads, applies ordered writes and accepts session settings.
// In the paper this is a JDBC connection (directly to PostgreSQL for
// plain C-JDBC; to an Apuama Node Processor when Apuama is installed).
type Backend interface {
	ID() int
	// Query executes a read-only statement. The context carries the
	// caller's per-query deadline; a wedged backend must return once it
	// is cancelled.
	Query(ctx context.Context, sqlText string) (*engine.Result, error)
	// ApplyWrite applies write number writeID. Deliveries arrive in
	// strictly increasing writeID order.
	ApplyWrite(ctx context.Context, writeID int64, stmt sql.Statement) (int64, error)
	// Set applies a session setting on the backend.
	Set(st *sql.SetStmt) error
	// Watermark reports the last write the backend has applied (its
	// replication position, used by recovery).
	Watermark() int64
	// Ping reports whether the backend is reachable; the breaker's
	// half-open probe calls it before attempting recovery.
	Ping(ctx context.Context) error
}

// Admittable is optionally implemented by backends that mirror the
// controller's rotation decisions in a lower layer. The Apuama engine
// uses it to keep a tripped backend out of the SVP fan-out and the
// consistency barrier until its write log has been replayed: a
// healed-but-stale replica in the barrier would stall queries on a
// catch-up that may itself be queued behind a gated write.
type Admittable interface {
	SetAdmitted(ok bool)
}

// NodeBackend adapts an engine.Node directly (the plain C-JDBC setup).
type NodeBackend struct {
	Node *engine.Node
}

// ID returns the node id.
func (nb *NodeBackend) ID() int { return nb.Node.ID() }

// Query parses and runs a SELECT on the node.
func (nb *NodeBackend) Query(_ context.Context, sqlText string) (*engine.Result, error) {
	return nb.Node.Query(sqlText)
}

// ApplyWrite forwards an ordered write.
func (nb *NodeBackend) ApplyWrite(_ context.Context, writeID int64, stmt sql.Statement) (int64, error) {
	return nb.Node.ApplyWrite(writeID, stmt)
}

// Set forwards a SET statement.
func (nb *NodeBackend) Set(st *sql.SetStmt) error {
	nb.Node.Set(st.Name, st.Value)
	return nil
}

// Watermark reports the node's replication position.
func (nb *NodeBackend) Watermark() int64 { return nb.Node.Watermark() }

// Ping reports reachability; an in-process node is always reachable.
func (nb *NodeBackend) Ping(context.Context) error { return nil }

// Resilience constants (see DESIGN.md "Failure handling"). A transient
// failure is retried in place retryLimit times after the first try, the
// wait starting at retryBackoff and doubling up to maxRetryBackoff; the
// controller and the Apuama engine share the policy through Backoff.
// breakerThreshold consecutive exhausted-transient failures trip a
// backend's breaker (a crash trips it at once), and its half-open probe
// runs every probeInterval, doubling up to maxProbeInterval while the
// backend stays unreachable.
const (
	retryLimit       = 3
	retryBackoff     = 100 * time.Microsecond
	maxRetryBackoff  = 10 * time.Millisecond
	breakerThreshold = 3
	probeInterval    = 200 * time.Microsecond
	maxProbeInterval = 20 * time.Millisecond
)

// Backoff is one request's budget of in-place retries of transient
// failures. The zero value is a fresh budget.
type Backoff struct {
	retries int
	wait    time.Duration
}

// Retry decides what follows a failed try. It returns nil after waiting
// the next backoff step when err is transient and the budget has a retry
// left: the caller tries again. Otherwise it returns the error to fail
// with: err itself, or ctx's error when ctx ends during the wait.
func (b *Backoff) Retry(ctx context.Context, err error) error {
	if !errors.Is(err, ErrTransient) || b.retries == retryLimit {
		return err
	}
	b.retries++
	b.wait = min(max(2*b.wait, retryBackoff), maxRetryBackoff)
	t := time.NewTimer(b.wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CtlStats counts the controller's degraded-mode activity so chaos tests
// can assert on behaviour instead of sleeping.
type CtlStats struct {
	BreakerTrips     int64 // backends taken out of rotation by the breaker
	Probes           int64 // half-open reachability probes issued
	AutoRecoveries   int64 // probe-triggered write-log replays that re-admitted a backend
	TransientRetries int64 // in-place retries of transient failures (reads and writes)
	ReadFailovers    int64 // reads re-routed to another backend after a failure
}

// backendState wraps a Backend with scheduling and breaker bookkeeping.
type backendState struct {
	b       Backend
	pending atomic.Int64
	reads   atomic.Int64
	// disabled is the breaker: true = open (out of rotation).
	disabled atomic.Bool
	// transientFails counts consecutive exhausted transient failures;
	// reaching breakerThreshold trips the breaker.
	transientFails atomic.Int64
	// probing reports an active probe loop; guarded by Controller.probeMu.
	probing bool
}

// Controller is the virtual database: the request manager, scheduler and
// load balancer of the C-JDBC architecture.
type Controller struct {
	db       *engine.Database
	backends []*backendState
	net      *costmodel.Meter

	// writeMu is the Scheduler's total order: one replicated write at a
	// time, delivered to every backend before the next begins. Broadcast
	// cost therefore grows with the number of replicas — the effect
	// behind the paper's Fig. 4 flattening at 16-32 nodes.
	writeMu  sync.Mutex
	writeSeq atomic.Int64

	// writeLog retains every scheduled write so a crashed replica can be
	// recovered by replay (guarded by writeMu).
	writeLog []loggedWrite

	// Probe lifecycle: ctx cancels probe loops on Close; probeMu guards
	// backendState.probing and closed so a re-trip can never race a
	// terminating probe loop into a permanently disabled backend.
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	probeMu sync.Mutex
	closed  bool

	breakerTrips     atomic.Int64
	probes           atomic.Int64
	autoRecoveries   atomic.Int64
	transientRetries atomic.Int64
	readFailovers    atomic.Int64

	// Registry mirrors of the counters above (nil-safe no-ops without a
	// registry).
	mBreakerTrips     *obs.Counter
	mProbes           *obs.Counter
	mAutoRecoveries   *obs.Counter
	mTransientRetries *obs.Counter
	mReadFailovers    *obs.Counter
}

// loggedWrite is one entry of the recovery log.
type loggedWrite struct {
	id   int64
	stmt sql.Statement
}

// New assembles a controller over the given backends. Middleware
// traffic is charged under the database's cost model, and the resilience
// counters are mirrored into reg (nil mirrors nothing).
func New(db *engine.Database, backends []Backend, reg *obs.Registry) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		db:  db,
		net: costmodel.NewMeter(db.Config()),
		ctx: ctx, cancel: cancel,

		mBreakerTrips:     reg.Counter(obs.MBreakerTrips),
		mProbes:           reg.Counter(obs.MProbes),
		mAutoRecoveries:   reg.Counter(obs.MAutoRecoveries),
		mTransientRetries: reg.Counter(obs.MTransientRetries),
		mReadFailovers:    reg.Counter(obs.MReadFailovers),
	}
	for _, b := range backends {
		c.backends = append(c.backends, &backendState{b: b})
	}
	return c
}

// Close stops the controller's background probe loops. The controller
// remains usable for queries, but tripped backends are no longer
// auto-recovered.
func (c *Controller) Close() {
	c.probeMu.Lock()
	c.closed = true
	c.probeMu.Unlock()
	c.cancel()
	c.wg.Wait()
}

// NumBackends returns the replica count.
func (c *Controller) NumBackends() int { return len(c.backends) }

// Backend returns backend i (tests and the Apuama engine use this).
func (c *Controller) Backend(i int) Backend { return c.backends[i].b }

// NetMeter exposes the middleware network meter.
func (c *Controller) NetMeter() *costmodel.Meter { return c.net }

// Snapshot returns the controller's resilience counters.
func (c *Controller) Snapshot() CtlStats {
	return CtlStats{
		BreakerTrips:     c.breakerTrips.Load(),
		Probes:           c.probes.Load(),
		AutoRecoveries:   c.autoRecoveries.Load(),
		TransientRetries: c.transientRetries.Load(),
		ReadFailovers:    c.readFailovers.Load(),
	}
}

// Query load-balances a read-only request to one backend with no
// deadline. See QueryContext.
func (c *Controller) Query(sqlText string) (*engine.Result, error) {
	return c.QueryContext(context.Background(), sqlText)
}

// QueryContext load-balances a read-only request to one backend. A
// transient failure is retried in place with bounded exponential
// backoff; a backend that stays broken trips its breaker and the request
// fails over to the remaining replicas (C-JDBC's behaviour on a node
// crash, plus the breaker). SQL errors return to the client unretried.
func (c *Controller) QueryContext(ctx context.Context, sqlText string) (*engine.Result, error) {
	if len(c.backends) == 0 {
		return nil, fmt.Errorf("no backends")
	}
	cfg := c.net.Config()
	for attempt := 0; attempt < len(c.backends); attempt++ {
		bs, err := c.pick()
		if err != nil {
			return nil, err
		}
		res, err := c.queryBackend(ctx, bs, sqlText, cfg)
		if errors.Is(err, ErrBackendDown) {
			c.trip(bs)
			c.readFailovers.Add(1)
			c.mReadFailovers.Inc()
			continue
		}
		if errors.Is(err, ErrTransient) {
			// Retries exhausted: count against the breaker, go elsewhere.
			if bs.transientFails.Add(1) >= breakerThreshold {
				c.trip(bs)
			}
			c.readFailovers.Add(1)
			c.mReadFailovers.Inc()
			continue
		}
		if err != nil {
			return nil, err
		}
		bs.transientFails.Store(0)
		c.net.Charge(time.Duration(len(res.Rows)) * cfg.NetPerRow)
		c.net.Flush()
		return res, nil
	}
	return nil, fmt.Errorf("query failed over on every backend: %w", ErrBackendDown)
}

// queryBackend runs one read on one backend, retrying transient failures
// in place with capped exponential backoff.
func (c *Controller) queryBackend(ctx context.Context, bs *backendState, sqlText string, cfg costmodel.Config) (*engine.Result, error) {
	var bo Backoff
	for {
		bs.pending.Add(1)
		bs.reads.Add(1)
		c.net.Charge(cfg.NetMessage)
		res, err := bs.b.Query(ctx, sqlText)
		bs.pending.Add(-1)
		if err == nil {
			return res, nil
		}
		if err := bo.Retry(ctx, err); err != nil {
			return nil, err
		}
		c.countRetry()
	}
}

// countRetry counts one in-place retry of a transient failure.
func (c *Controller) countRetry() {
	c.transientRetries.Add(1)
	c.mTransientRetries.Inc()
}

// pick returns the enabled backend with the fewest pending requests: the
// least-pending-requests policy the paper configures C-JDBC with.
func (c *Controller) pick() (*backendState, error) {
	var best *backendState
	for _, bs := range c.backends {
		if bs.disabled.Load() {
			continue
		}
		if best == nil || bs.pending.Load() < best.pending.Load() {
			best = bs
		}
	}
	if best == nil {
		return nil, fmt.Errorf("all backends are disabled: %w", ErrBackendDown)
	}
	return best, nil
}

// trip opens a backend's circuit breaker: the backend leaves rotation
// and a background probe loop starts working to bring it back.
func (c *Controller) trip(bs *backendState) {
	if bs.disabled.CompareAndSwap(false, true) {
		c.breakerTrips.Add(1)
		c.mBreakerTrips.Inc()
	}
	if a, ok := bs.b.(Admittable); ok {
		a.SetAdmitted(false)
	}
	c.startProbe(bs)
}

// startProbe launches the half-open probe loop for a tripped backend if
// one is not already running.
func (c *Controller) startProbe(bs *backendState) {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	if bs.probing || c.closed {
		return
	}
	bs.probing = true
	c.wg.Add(1)
	go c.probeLoop(bs)
}

// probeLoop periodically probes a tripped backend (the breaker's
// half-open state). A successful probe triggers a write-log replay and
// re-admission. The loop exits only when it observes the breaker closed
// while holding probeMu, so a concurrent re-trip can never be left
// without a probe.
func (c *Controller) probeLoop(bs *backendState) {
	defer c.wg.Done()
	interval := probeInterval
	for {
		select {
		case <-c.ctx.Done():
			c.probeMu.Lock()
			bs.probing = false
			c.probeMu.Unlock()
			return
		case <-time.After(interval):
		}
		c.probes.Add(1)
		c.mProbes.Inc()
		if err := bs.b.Ping(c.ctx); err != nil {
			interval = min(interval*2, maxProbeInterval)
			continue
		}
		// Half-open probe succeeded: replay missed writes, re-admit.
		if err := c.recoverState(bs); err != nil {
			interval = min(interval*2, maxProbeInterval)
			continue
		}
		c.autoRecoveries.Add(1)
		c.mAutoRecoveries.Inc()
		c.probeMu.Lock()
		if !bs.disabled.Load() {
			bs.probing = false
			c.probeMu.Unlock()
			return
		}
		// Re-tripped while recovering: keep probing.
		c.probeMu.Unlock()
		interval = probeInterval
	}
}

// Recover replays the writes a disabled backend missed (from the
// controller's write log) and puts it back into rotation. New writes are
// held for the duration, so the replica rejoins exactly caught up.
// The backend itself must be reachable again (e.g. the node process
// restarted) before calling Recover. The breaker's auto-recovery calls
// the same replay path; Recover remains for operator-driven repair.
func (c *Controller) Recover(i int) error {
	if i < 0 || i >= len(c.backends) {
		return fmt.Errorf("no backend %d", i)
	}
	return c.recoverState(c.backends[i])
}

// recoverState replays missed writes to one backend and closes its
// breaker. Holding writeMu stalls new writes, so the replica rejoins
// exactly caught up.
func (c *Controller) recoverState(bs *backendState) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	wm := bs.b.Watermark()
	for _, lw := range c.writeLog {
		if lw.id <= wm {
			continue
		}
		if _, err := bs.b.ApplyWrite(c.ctx, lw.id, lw.stmt); err != nil {
			return fmt.Errorf("recovery of backend %d at write %d: %w", bs.b.ID(), lw.id, err)
		}
	}
	bs.transientFails.Store(0)
	bs.disabled.Store(false)
	if a, ok := bs.b.(Admittable); ok {
		a.SetAdmitted(true)
	}
	return nil
}

// WriteLogLen reports the recovery log size (monitoring/tests).
func (c *Controller) WriteLogLen() int {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return len(c.writeLog)
}

// DisabledBackends lists backends whose breaker is currently open.
func (c *Controller) DisabledBackends() []int {
	var out []int
	for i, bs := range c.backends {
		if bs.disabled.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Exec routes a statement with no deadline. See ExecContext.
func (c *Controller) Exec(sqlText string) (int64, error) {
	return c.ExecContext(context.Background(), sqlText)
}

// ExecContext routes a statement: SELECT is rejected (use Query), writes
// are scheduled and broadcast, DDL mutates the shared catalog, SET is
// broadcast to all backends.
func (c *Controller) ExecContext(ctx context.Context, sqlText string) (int64, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return 0, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return 0, fmt.Errorf("Exec cannot run SELECT; use Query")
	case *sql.CreateTableStmt:
		_, err := c.db.CreateTable(st)
		return 0, err
	case *sql.CreateIndexStmt:
		return 0, c.db.CreateIndex(st)
	case *sql.SetStmt:
		for _, bs := range c.backends {
			if err := bs.b.Set(st); err != nil {
				return 0, err
			}
		}
		return 0, nil
	default:
		return c.ExecWriteContext(ctx, stmt)
	}
}

// ExecWrite schedules a parsed write statement with no deadline.
func (c *Controller) ExecWrite(stmt sql.Statement) (int64, error) {
	return c.ExecWriteContext(context.Background(), stmt)
}

// ExecWriteContext schedules a parsed write statement: it takes the next
// slot in the total order and synchronously delivers it to every backend
// (the replicas apply concurrently; the write completes when all have
// acknowledged, like C-JDBC's RAIDb-1 broadcast). A replica that fails
// the delivery — crash, or transient errors beyond the retry budget —
// trips its breaker and leaves the set; the write commits on survivors
// and recovery replays it later.
func (c *Controller) ExecWriteContext(ctx context.Context, stmt sql.Statement) (int64, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	id := c.writeSeq.Add(1)
	cfg := c.net.Config()

	type reply struct {
		bs  *backendState
		n   int64
		err error
	}
	var live []*backendState
	for _, bs := range c.backends {
		if !bs.disabled.Load() {
			live = append(live, bs)
		}
	}
	if len(live) == 0 {
		return 0, fmt.Errorf("write %d: %w", id, ErrBackendDown)
	}
	c.writeLog = append(c.writeLog, loggedWrite{id: id, stmt: stmt})
	// One round trip for the write itself plus a serialized per-replica
	// fan-out cost: broadcasting to more replicas takes longer, which is
	// the update-propagation delay the paper observes at 16-32 nodes.
	c.net.Charge(cfg.NetMessage + time.Duration(len(live))*cfg.WriteFanout)
	replies := make(chan reply, len(live))
	for _, bs := range live {
		go func(bs *backendState) {
			var bo Backoff
			for {
				n, err := bs.b.ApplyWrite(ctx, id, stmt)
				if err != nil {
					if err = bo.Retry(ctx, err); err == nil {
						c.countRetry()
						continue
					}
				}
				replies <- reply{bs: bs, n: n, err: err}
				return
			}
		}(bs)
	}
	c.net.Flush()
	var affected int64
	var firstErr error
	applied := 0
	for range live {
		r := <-replies
		if errors.Is(r.err, ErrBackendDown) || errors.Is(r.err, ErrTransient) {
			// Drop the replica and let the write commit on survivors
			// (RAIDb-1 semantics: a crashed replica leaves the set).
			// The breaker's probe will replay this write from the log.
			c.trip(r.bs)
			continue
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.err == nil {
			r.bs.transientFails.Store(0)
			applied++
			affected = r.n
		}
	}
	if firstErr != nil {
		return 0, fmt.Errorf("write %d: %w", id, firstErr)
	}
	if applied == 0 {
		return 0, fmt.Errorf("write %d: %w", id, ErrBackendDown)
	}
	return affected, nil
}

// Stats reports per-backend read counts (used by balancing tests).
func (c *Controller) Stats() []int64 {
	out := make([]int64, len(c.backends))
	for i, bs := range c.backends {
		out[i] = bs.reads.Load()
	}
	return out
}
