package core

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"apuama/internal/cluster"
	"apuama/internal/engine"
	"apuama/internal/fault"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// NodeProcessor mediates all requests to one node engine, exactly like
// the paper's per-node component: it owns a pool of connections (here a
// semaphore bounding concurrent statements per node) and a Query Executor
// that ships a statement and waits for the result.
//
// Every request path is context-aware (pool admission and injected
// faults both honour cancellation) so a per-query deadline set upstream
// can abandon a wedged node instead of blocking forever.
type NodeProcessor struct {
	node *engine.Node
	pool chan struct{}

	// down simulates a node crash: every request fails with
	// cluster.ErrBackendDown until Revive. Used by failure-injection
	// tests and chaos runs.
	down atomic.Bool

	// faults optionally scripts richer failure modes (stragglers, flaky
	// errors, mid-query crashes, delayed recovery) via internal/fault.
	faults atomic.Pointer[fault.Injector]

	// excluded mirrors the controller's circuit breaker: a tripped
	// backend stays out of the SVP fan-out and the consistency barrier
	// until the controller has replayed its missed writes and re-admitted
	// it — even if the node itself has already healed. Without this the
	// barrier would wait on a healed-but-stale replica whose catch-up
	// (recovery replay, needing the write lock) can itself be queued
	// behind a write that the barrier is holding at the gate.
	excluded atomic.Bool

	// Per-node observability handles (nil when no registry is wired):
	// queueing delay at the connection pool, current pool occupancy, and
	// fine-partition claims taken by this node's scheduler worker.
	poolWait *obs.Histogram
	inflight *obs.Gauge
	claims   *obs.Counter
}

// NewNodeProcessor wraps a node with a connection pool of the given size
// (at least 1).
func NewNodeProcessor(node *engine.Node, size int) *NodeProcessor {
	return &NodeProcessor{node: node, pool: make(chan struct{}, size)}
}

// Node exposes the underlying engine (the blocker reads its transaction
// counter; tests inspect its buffer pool).
func (p *NodeProcessor) Node() *engine.Node { return p.node }

// setObs wires the processor's per-node metrics (nil reg disables).
// Called once at engine construction, before any traffic.
func (p *NodeProcessor) setObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	id := strconv.Itoa(p.node.ID())
	p.poolWait = reg.Histogram(obs.Labeled(obs.MPoolWait, "node", id))
	p.inflight = reg.Gauge(obs.Labeled(obs.MNodeInflight, "node", id))
	p.claims = reg.Counter(obs.Labeled(obs.MAVPNodeParts, "node", id))
	p.node.SetObs(reg)
}

// countClaim records one fine-partition claim executed by this node
// (obs.Counter is nil-safe, so an unwired processor is a no-op).
func (p *NodeProcessor) countClaim() { p.claims.Inc() }

// InjectFaults attaches a fault injector; nil detaches.
func (p *NodeProcessor) InjectFaults(inj *fault.Injector) { p.faults.Store(inj) }

// acquire takes a pooled connection, abandoning the wait if the context
// is cancelled first. When metrics are wired, the admission wait is
// attributed to the node's pool-wait histogram — the queueing-delay
// signal that distinguishes a slow node from an oversubscribed one.
func (p *NodeProcessor) acquire(ctx context.Context) (func(), error) {
	var t0 time.Time
	if p.poolWait != nil {
		t0 = time.Now()
	}
	select {
	case p.pool <- struct{}{}:
		if p.poolWait != nil {
			p.poolWait.Observe(time.Since(t0))
			p.inflight.Set(int64(len(p.pool)))
		}
		return func() {
			<-p.pool
			p.inflight.Set(int64(len(p.pool)))
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Inflight reports the number of statements currently holding a pooled
// connection (a flight follower's load signal).
func (p *NodeProcessor) Inflight() int { return len(p.pool) }

// Kill simulates a node crash: subsequent requests report
// cluster.ErrBackendDown.
func (p *NodeProcessor) Kill() { p.down.Store(true) }

// Revive clears a simulated crash.
func (p *NodeProcessor) Revive() { p.down.Store(false) }

// SetAdmitted reflects the controller's rotation decision (breaker
// tripped / re-admitted). It affects only planning-time liveness
// (Down); probes and recovery replay still reach the node.
func (p *NodeProcessor) SetAdmitted(ok bool) { p.excluded.Store(!ok) }

// Down reports whether the node is currently out of service: "crashed"
// via Kill, out of rotation at the controller, or down per an attached
// fault injector. It never consumes a scripted fault — liveness peeks
// must not advance the script.
func (p *NodeProcessor) Down() bool {
	if p.down.Load() || p.excluded.Load() {
		return true
	}
	if inj := p.faults.Load(); inj != nil {
		return inj.Down()
	}
	return false
}

// begin runs the down check and the fault script for one operation. The
// returned hook (possibly nil) must be applied to the operation's error.
func (p *NodeProcessor) begin(ctx context.Context) (after func(error) error, err error) {
	if p.down.Load() {
		return nil, cluster.ErrBackendDown
	}
	if inj := p.faults.Load(); inj != nil {
		return inj.Begin(ctx)
	}
	return nil, nil
}

// Ping reports whether the node would accept a request right now. It
// consults the fault script (consuming one scripted request, which is
// what lets delayed-recovery faults heal under a probe loop) but ships
// no statement.
func (p *NodeProcessor) Ping(ctx context.Context) error {
	after, err := p.begin(ctx)
	if err != nil {
		return err
	}
	if after != nil {
		return after(nil)
	}
	return nil
}

// Query forwards a statement other than a SELECT unchanged (EXPLAIN) to
// the node, which parses it again.
func (p *NodeProcessor) Query(ctx context.Context, sqlText string) (*engine.Result, error) {
	after, err := p.begin(ctx)
	if err != nil {
		return nil, err
	}
	release, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, qerr := p.node.Query(sqlText)
	if after != nil {
		qerr = after(qerr)
	}
	if qerr != nil {
		return nil, qerr
	}
	return res, nil
}

// QueryStmt is the pass-through path for OLTP reads and SVP-ineligible
// queries: it runs sel — a statement of shape sh, with args bound to its
// placeholders — at the node's current snapshot, through a plan the shape
// keeps on this node, like a JDBC PreparedStatement on its connection:
// re-bound to args where it accepts them (Prepared.Rebind), and otherwise
// planned afresh; either way given back to the shape. The result's rows
// are cut from a pooled arena and listed in a pooled list, which its
// Release hands back (the wire server releases it once the rows are
// encoded; a result never released leaves both to the collector).
func (p *NodeProcessor) QueryStmt(ctx context.Context, sh *shape, sel *sql.SelectStmt, args []sqltypes.Value) (*engine.Result, error) {
	after, err := p.begin(ctx)
	if err != nil {
		return nil, err
	}
	release, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	rows, list := engine.NewRowArena(), rowLists.Get().(*[]sqltypes.Row)
	prep := sh.take(planKey{p: p, pass: true})
	res, qerr := p.read(ctx, sel, args, &prep, rows, list)
	sh.put(planKey{p: p, pass: true}, prep)
	if after != nil {
		qerr = after(qerr)
	}
	free := func() {
		rows.Release()
		putRowList(list)
	}
	if qerr != nil {
		free()
		return nil, qerr
	}
	res.OnRelease(free)
	return res, nil
}

// read drains sel with args at the node's current snapshot into list, its
// rows cut from rows, through *prep (see open).
func (p *NodeProcessor) read(ctx context.Context, sel *sql.SelectStmt, args []sqltypes.Value, prep **engine.Prepared, rows *engine.RowArena, list *[]sqltypes.Row) (*engine.Result, error) {
	opts := engine.QueryOpts{Ctx: ctx}
	cur, _, err := p.open(sel, args, p.node.Watermark(), opts, prep, rows)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	for {
		if err := cur.Next(b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return &engine.Result{Cols: cur.Cols(), Rows: *list}, nil
		}
		*list = append(*list, b.Rows...)
	}
}

// StreamAt runs the sub-query stmt, with args bound to its placeholders,
// pinned to the barrier snapshot, and delivers the result
// batch-at-a-time through sink instead of materializing it. The pooled
// connection is held for the whole stream. Each delivered batch is owned
// by the sink (which must return it to the batch pool when done); a
// non-nil sink error aborts the stream.
//
// prep, when non-nil, is the calling worker's prepared plan on this node,
// like a JDBC PreparedStatement on its connection: it is re-opened when
// it re-binds to args (reused reports this), and otherwise replaced by a
// fresh plan, which the worker keeps for its next claim. The delivered rows
// are cut from rows (nil: the heap); they stay valid after StreamAt returns,
// until the caller releases the arena.
//
// Fault semantics: the injector's after-hook fires when
// the operation ends, so a scripted failure can surface after batches
// have already been delivered — callers must be prepared to discard a
// partially streamed attempt.
func (p *NodeProcessor) StreamAt(ctx context.Context, stmt *sql.SelectStmt, args []sqltypes.Value, snapshot int64, forceIndex bool, prep **engine.Prepared, rows *engine.RowArena, sink func(*sqltypes.Batch) error) (reused bool, err error) {
	after, err := p.begin(ctx)
	if err != nil {
		return false, err
	}
	release, err := p.acquire(ctx)
	if err != nil {
		return false, err
	}
	defer release()
	opts := engine.QueryOpts{ForceIndexScan: forceIndex, Ctx: ctx}
	cur, reused, qerr := p.open(stmt, args, snapshot, opts, prep, rows)
	if qerr == nil {
		for {
			b := sqltypes.GetBatch()
			if qerr = cur.Next(b); qerr != nil {
				sqltypes.PutBatch(b)
				break
			}
			if b.Len() == 0 {
				sqltypes.PutBatch(b)
				break
			}
			if qerr = sink(b); qerr != nil {
				break
			}
		}
		cur.Close()
	}
	if after != nil {
		qerr = after(qerr)
	}
	return reused, qerr
}

// open opens stmt with args at snapshot, its rows cut from rows: the
// worker's prepared plan when it re-binds to them, else a fresh plan that
// replaces it.
func (p *NodeProcessor) open(stmt *sql.SelectStmt, args []sqltypes.Value, snapshot int64, opts engine.QueryOpts, prep **engine.Prepared, rows *engine.RowArena) (*engine.Cursor, bool, error) {
	if prep != nil && *prep != nil && (*prep).Rebind(args, opts) {
		cur, err := (*prep).OpenAt(snapshot, opts, rows)
		return cur, true, err
	}
	plan, err := p.node.Prepare(stmt, args, opts)
	if err != nil {
		return nil, false, err
	}
	if prep != nil {
		*prep = plan
	}
	cur, err := plan.OpenAt(snapshot, opts, rows)
	return cur, false, err
}

// ApplyWrite forwards a middleware-ordered write. A crash-mid-query
// fault may apply the write and then report the node dead; the node's
// watermark advances with the write, so recovery replay skips it and
// replicas stay consistent.
func (p *NodeProcessor) ApplyWrite(ctx context.Context, writeID int64, stmt sql.Statement) (int64, error) {
	after, err := p.begin(ctx)
	if err != nil {
		return 0, err
	}
	release, err := p.acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer release()
	n, werr := p.node.ApplyWrite(writeID, stmt)
	if after != nil {
		werr = after(werr)
	}
	if werr != nil {
		return 0, werr
	}
	return n, nil
}

// TxnCounter returns the node's transaction counter (its applied-write
// watermark) — the value the blocker compares across nodes.
func (p *NodeProcessor) TxnCounter() int64 { return p.node.Watermark() }

// waitSpin is the initial poll interval of the convergence loops; each
// unproductive poll doubles it up to waitSpinMax (capped exponential
// backoff instead of a fixed busy-spin).
const (
	waitSpin    = 50 * time.Microsecond
	waitSpinMax = 2 * time.Millisecond
)
