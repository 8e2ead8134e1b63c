package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/admission"
	"apuama/internal/cache"
	"apuama/internal/cluster"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// Strategy selects the intra-query parallelism technique.
type Strategy int

// Intra-query strategies: the paper's Simple Virtual Partitioning (one
// range per node) and the SmaQ-style Adaptive Virtual Partitioning it
// compares against in §6 (adaptively-sized sub-ranges per node).
const (
	SVP Strategy = iota
	AVP
)

// String names the strategy.
func (s Strategy) String() string {
	if s == AVP {
		return "AVP"
	}
	return "SVP"
}

// Options configures the Apuama Engine. It is the one declaration of the
// engine's knobs: the facade, the experiment harness and the binaries'
// flags all pass it through whole. The zero value is the paper's
// configuration: SVP on, sequential scans off around sub-queries, the
// consistency barrier on.
type Options struct {
	// Strategy is the intra-query technique (default SVP, the paper's).
	Strategy Strategy
	// AllowSeqscan stops the engine disabling sequential scans around SVP
	// sub-queries (ablation of the paper's §3 optimizer override).
	AllowSeqscan bool
	// DisableSVP turns the engine into a transparent proxy: the plain
	// C-JDBC baseline, used for ablations.
	DisableSVP bool
	// NoBarrier skips the consistency barrier (ablation only — with the
	// explicit-snapshot engines of this reproduction results stay
	// consistent, but a real JDBC deployment would race; see DESIGN.md).
	NoBarrier bool
	// MaxStaleness enables the paper's future-work replication policy
	// ("an alternative replication policy that relaxes consistency"):
	// when > 0, SVP queries do not block updates at all; they read at
	// the lagging replica's snapshot as long as replicas are within
	// MaxStaleness writes of each other (Refresco-style freshness
	// control), waiting only when divergence exceeds the bound.
	MaxStaleness int64

	// Cache sizes the versioned result cache and in-flight query
	// sharing layer (internal/cache). The zero value disables caching:
	// every query executes. Entries are keyed by (canonical query
	// fingerprint, cluster txn-counter epoch), so any committed write
	// implicitly invalidates — see DESIGN.md "Result caching & work
	// sharing".
	Cache cache.Config

	// Admission configures overload protection for the SVP path:
	// admission control with bounded queueing and typed load shedding, a
	// cluster-wide memory budget for composition state, brownout
	// degradation under sustained saturation, the slow-query killer, and
	// MQO's batching window (Admission.BatchWindow: default 3ms with MQO
	// on, forced to 0 with it off). The zero value disables all of it
	// (every query admitted, no budget). See DESIGN.md "Overload &
	// graceful degradation".
	Admission admission.Config

	// QueryTimeout is the per-query deadline applied by RunSVP when the
	// caller's context carries none. Zero disables the default deadline.
	QueryTimeout time.Duration

	// AVPGranularity is the fine-partition fan-out: virtual partitions
	// per configured node, dispatched from one cluster-level queue that
	// every node pulls from (fast nodes drain it and steal from
	// stragglers). 1 pins the classic coarse one-range-per-node split;
	// 0 (auto) targets 32 partitions per node but never cuts a range
	// under avpMinPartKeys keys, so small domains keep the coarse
	// layout. Ranges depend only on the configured node count, never on
	// liveness, keeping partial-cache keys stable across degree changes.
	AVPGranularity int

	// Columnar enables the segment store: node planners replace eligible
	// heap scans with columnar segment scans whose zone maps prune
	// segments that cannot match the filter. The heap
	// stays the write-side store; segments materialize lazily per barrier
	// epoch. Results are bit-identical with the heap path — only the
	// simulated IO/CPU charged for pruned segments changes.
	Columnar bool

	// MQO enables multi-query optimization: cooperative shared scans
	// in the node engines (concurrent queries over one relation and
	// snapshot share a single physical segment pass), canonical
	// sub-plan fingerprints for the partial cache and the
	// partition-level singleflight (overlapping decomposed sub-queries
	// from different parent statements execute each partition once),
	// and the admission-side batching window that makes bursts overlap.
	// Results are IEEE-bit-identical with MQO off — only the work
	// performed changes.
	MQO bool

	// gatherBudget bounds the in-flight partial-result batches buffered
	// between the node streams and the composer, per partition: fast
	// producers block once the gather channel holds gatherBudget × nodes
	// undelivered batches (backpressure). Default 8; only tests set it.
	gatherBudget int
	// barrierTimeout bounds the replica-convergence wait. Default 30s;
	// only tests set it.
	barrierTimeout time.Duration
}

// DefaultOptions mirrors the paper's configuration, with every
// defaultable knob already resolved: the value is a fixed point of the
// engine's option normalization, so it round-trips through New unchanged.
func DefaultOptions() Options {
	return Options{}.withDefaults()
}

// withDefaults is the one place option defaulting happens. New
// normalizes every caller-supplied Options through it; DefaultOptions
// returns its fixed point. Adding a defaultable knob means adding it
// here (and only here) — the round-trip test in options_test.go catches
// a default applied anywhere else.
func (o Options) withDefaults() Options {
	if o.gatherBudget <= 0 {
		o.gatherBudget = defaultGatherBudget
	}
	if o.barrierTimeout == 0 {
		o.barrierTimeout = defaultBarrierTimeout
	}
	if !o.MQO {
		o.Admission.BatchWindow = 0
	} else if o.Admission.BatchWindow == 0 {
		o.Admission.BatchWindow = defaultMQOWindow
	}
	return o
}

// RegisterFlags registers the engine flags every binary shares on fs,
// each bound to its field of o and defaulting to the field's current
// value.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.DisableSVP, "baseline", o.DisableSVP, "disable Apuama (plain C-JDBC-style cluster)")
	fs.IntVar(&o.AVPGranularity, "avp-granularity", o.AVPGranularity, "fine virtual partitions per configured node (0 = auto, 1 = coarse one-range-per-node)")
	fs.BoolVar(&o.Columnar, "columnar", o.Columnar, "enable the columnar segment store with zone-map pruning")
	fs.BoolVar(&o.MQO, "mqo", o.MQO, "enable multi-query optimization: cooperative shared scans and common sub-plan sharing")
	fs.DurationVar(&o.Admission.BatchWindow, "mqo-window", o.Admission.BatchWindow, "admission batching window for MQO bursts (0 = 3ms default when -mqo)")
}

// Engine constants: values no program configures (see DESIGN.md
// "Failure handling"), and the defaults of the options only tests set.
const (
	// poolSize bounds concurrent statements per node processor.
	poolSize = 8
	// defaultGatherBudget is the per-partition in-flight batch bound of
	// the streaming gather (Options.gatherBudget).
	defaultGatherBudget = 8
	// defaultBarrierTimeout bounds the replica-convergence wait
	// (Options.barrierTimeout).
	defaultBarrierTimeout = 30 * time.Second
	// defaultMQOWindow is the admission batching window MQO applies
	// when Admission.BatchWindow is unset: long enough that a dashboard
	// burst lands in one shared pass, short enough to be invisible
	// against typical OLAP latency.
	defaultMQOWindow = 3 * time.Millisecond
)

// Engine is the Apuama Engine: the Cluster Administrator of Fig. 1(b).
// Install it between a cluster.Controller and the node engines by using
// Backends() as the controller's backend list.
type Engine struct {
	db      *engine.Database
	catalog *Catalog
	procs   []*NodeProcessor
	mem     *memdb.MemDB
	gate    *blocker
	opts    Options
	net     *costmodel.Meter
	cache   *cache.Cache          // nil unless Options.Cache enables it
	adm     *admission.Controller // nil unless Options.Admission enables it

	// shapes keeps what SVP queries of one statement shape share: the
	// rewrite, node plans and composition tables (shape.go).
	shapes shapeCache

	// st is the engine's counter block (atomic fields; see stats.go) and
	// m the pre-resolved metric handles mirroring it into the registry.
	st engineStats
	m  engineMetrics

	// wireStats holds an optional func() WireStats provider merged into
	// Snapshot when a wire server is attached.
	wireStats atomic.Value

	// subs counts the sub-query goroutines queries have started — claim
	// loops and flight followers — which wind down after their query
	// has returned; Close waits for them.
	subs sync.WaitGroup
}

// Stats counts engine activity (exposed for experiments and tests).
type Stats struct {
	SVPQueries           int64 // queries executed with intra-query parallelism
	PassThrough          int64 // queries forwarded to a single node
	SubQueries           int64 // total sub-queries dispatched
	BlockedWrites        int64 // writes that waited at the consistency gate
	ComposedRows         int64 // partial rows loaded into the composer
	StaleReads           int64 // freshness-mode queries that read behind the head
	MaxObservedStaleness int64
	SubQueryRetries      int64 // partitions re-dispatched after a node crash
	BackoffRetries       int64 // in-place retries of transient sub-query failures
	// Hedges is always 0: the engine no longer runs speculative
	// duplicate sub-queries (stealing and requeue handle stragglers). It
	// stays for readers that still report it.
	Hedges               int64
	DeadlineAborts       int64 // SVP queries abandoned at their deadline
	StreamedBatches      int64 // partial batches streamed into the composer
	StreamedRows         int64 // partial rows streamed into the composer
	LimitShortCircuits   int64 // gathers stopped early by a settled pushed-down LIMIT
	AVPPartitions        int64 // fine virtual partitions dispatched (cache-warm ones excluded)
	AVPSteals            int64 // partitions claimed outside the claiming node's home block
	AVPRequeues          int64 // partitions put back on the queue after a node failure
	CacheHits            int64 // queries served from the versioned result cache
	CacheMisses          int64 // cache lookups that executed for real
	CacheStaleHits       int64 // cache hits served from behind the head epoch
	CacheShared          int64 // queries that shared another's in-flight execution
	CachePartialHits     int64 // partitions served from the partial cache (no dispatch)
	CachePartialMisses   int64 // partition probes that dispatched for real
	CacheFills           int64 // composed results inserted into the cache
	CacheEvictions       int64 // cache entries evicted by the entry/byte caps
	CacheExpired         int64 // cache entries dropped at their TTL
	CacheFlightCancels   int64 // singleflight followers cancelled mid-wait
	CachePartialFills    int64 // partition results inserted into the partial cache
	CachePartialShares   int64 // partitions joined onto an in-flight leader (MQO)
	Shapes               int64 // statement shapes added to the shape cache (its misses)
	ShapeEvictions       int64 // shapes the full shape cache evicted
	SharedScanAttaches   int64 // consumers attached to a shared-scan coordinator
	SharedScanSegments   int64 // segments physically scanned by shared-scan drivers
	SharedScanDeliveries int64 // consumer-segments served from shared passes
	SegmentsBuilt        int64 // column segments materialized from the heap
	SegmentsPruned       int64 // segments skipped via zone maps before scanning
	SegmentsScanned      int64 // segments actually scanned by columnar scans
	SegmentBytes         int64 // resident encoded segment bytes (gauge)
	WireFrames           int64 // binary wire frames in + out (0 without an attached server)
	WireBytes            int64 // binary wire bytes in + out
	WireStreams          int64 // binary wire query streams opened
	WireCancels          int64 // wire-level cancel frames honoured
	WireProtoVersion     int64 // last handshake-negotiated frame-format version
	BarrierWaits         time.Duration
	// FallbackReasons buckets SVP-ineligible queries by stable reason
	// class (see FallbackClass), keeping cardinality bounded.
	FallbackReasons map[string]int64
}

// New builds an Apuama Engine over the given nodes. reg, when non-nil,
// mirrors every engine counter into the registry and attributes
// per-phase latency (barrier, dispatch, sub-query, gather, compose) to
// histograms; nil disables mirroring at zero hot-path cost. Span tracing
// is independent: the engine records lifecycle spans onto whatever query
// span the caller placed in the context (obs.WithSpan).
func New(db *engine.Database, nodes []*engine.Node, catalog *Catalog, opts Options, reg *obs.Registry) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		db:      db,
		catalog: catalog,
		mem:     memdb.New(),
		gate:    newBlocker(),
		opts:    opts,
		net:     costmodel.NewMeter(db.Config()),
		cache:   cache.New(opts.Cache, reg),
		adm:     admission.New(opts.Admission, reg),
		m:       newEngineMetrics(reg),
	}
	e.st.wire(reg)
	// Columnar is a database-wide planner switch (segments live on the
	// shared relations); set it before any node serves a query. MQO
	// likewise: it swaps eligible columnar scans for shared-scan
	// consumers in every node planner.
	db.SetColumnar(opts.Columnar)
	db.SetMQO(opts.MQO)
	for _, nd := range nodes {
		p := NewNodeProcessor(nd, poolSize)
		p.setObs(reg)
		e.procs = append(e.procs, p)
	}
	return e
}

// Backends returns one cluster.Backend per node: the connection proxies
// C-JDBC plugs into instead of raw database connections.
func (e *Engine) Backends() []cluster.Backend {
	out := make([]cluster.Backend, len(e.procs))
	for i, p := range e.procs {
		out[i] = &backendProxy{eng: e, proc: p}
	}
	return out
}

// Procs exposes the node processors (experiments inspect node meters).
func (e *Engine) Procs() []*NodeProcessor { return e.procs }

// Options returns the resolved options the engine runs with.
func (e *Engine) Options() Options { return e.opts }

// Admission exposes the overload-protection controller (nil when
// Options.Admission is disabled); the daemon's stats endpoint and tests
// read its counters and force brownout levels through it.
func (e *Engine) Admission() *admission.Controller { return e.adm }

// Close releases the engine's background resources — the admission
// controller's sweeper goroutine and any queued admission waiters (shed
// with an overload error) — and returns once every sub-query goroutine a
// query started has exited, so nothing the engine started still reaches
// its nodes. Call it once no query is in flight. Safe on an engine without
// admission.
func (e *Engine) Close() {
	e.adm.Close()
	e.subs.Wait()
}

// Cache exposes the query cache (nil when disabled); the daemon's
// /debug/cache endpoint and tests read its occupancy stats.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// NetMeter exposes the engine's partial-result network meter.
func (e *Engine) NetMeter() *costmodel.Meter { return e.net }

// WireStats is the slice of Stats a wire server contributes; the server
// lives above the engine, so it registers a provider rather than being
// polled directly (keeping core free of a proto dependency).
type WireStats struct {
	Frames       int64
	Bytes        int64
	Streams      int64
	Cancels      int64
	ProtoVersion int64
}

// SetWireStats installs the provider Snapshot consults for the Wire*
// fields (the facade wires the attached proto server in here). Safe for
// concurrent use with Snapshot.
func (e *Engine) SetWireStats(fn func() WireStats) {
	e.wireStats.Store(fn)
}

// Snapshot returns a copy of the engine counters. Every scalar field is
// read with an atomic load (writers never block a snapshot and vice
// versa), and FallbackReasons is a fresh map the caller owns. The
// segment fields aggregate the per-node columnar counters at snapshot
// time (they live on the node engines, not in engineStats).
func (e *Engine) Snapshot() Stats {
	s := e.st.snapshot()
	for _, p := range e.procs {
		built, pruned, scanned := p.Node().SegmentStats()
		s.SegmentsBuilt += built
		s.SegmentsPruned += pruned
		s.SegmentsScanned += scanned
		attached, scans, deliveries := p.Node().SharedScanStats()
		s.SharedScanAttaches += attached
		s.SharedScanSegments += scans
		s.SharedScanDeliveries += deliveries
	}
	s.SegmentBytes = e.db.SegmentBytes()
	// The cache-internal counters (fills, evictions, flight activity)
	// live in the cache like the segment counters live on the nodes;
	// pull them at snapshot time so Stats mirrors every apuama_cache_*
	// metric the registry sees.
	cs := e.cache.Stats()
	s.CacheFills = cs.Fills
	s.CacheEvictions = cs.Evictions
	s.CacheExpired = cs.Expired
	s.CacheFlightCancels = cs.FlightCancels
	s.CachePartialFills = cs.PartialFill
	s.CachePartialShares = cs.PartialShares
	if fn, ok := e.wireStats.Load().(func() WireStats); ok {
		w := fn()
		s.WireFrames = w.Frames
		s.WireBytes = w.Bytes
		s.WireStreams = w.Streams
		s.WireCancels = w.Cancels
		s.WireProtoVersion = w.ProtoVersion
	}
	return s
}

// backendProxy is what the controller sees as one replica connection.
type backendProxy struct {
	eng  *Engine
	proc *NodeProcessor
}

func (bp *backendProxy) ID() int { return bp.proc.node.ID() }

// Query intercepts OLAP queries. Its plan stage (one plan span) parses
// the statement and plans the SELECT (Engine.plan). Reads whose key
// bounds meet two or more virtual partitions run with intra-query
// parallelism across every node; everything else passes straight through
// to this backend's node (OLTP is C-JDBC's business), a SELECT through a
// plan its shape keeps there.
func (bp *backendProxy) Query(ctx context.Context, sqlText string) (*engine.Result, error) {
	e, qspan := bp.eng, obs.SpanFrom(ctx)
	span := qspan.Phase("plan")
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		span.End()
		return nil, err
	}
	sel, isSelect := stmt.(*sql.SelectStmt)
	if !isSelect {
		span.End()
		return bp.passThrough(ctx, queryPlan{}, sqlText)
	}
	plan, err := e.plan(sel, !e.opts.DisableSVP)
	if errors.Is(err, ErrNotEligible) {
		// The reason the query passes through is the plan stage's last
		// decision.
		class := FallbackClass(err)
		e.countFallback(class)
		qspan.Annotate("svp_fallback", class)
		err = nil
	}
	span.End()
	switch {
	case err != nil:
		return nil, err
	case plan.rw != nil:
		return e.runPlanned(ctx, plan)
	}
	return bp.passThrough(ctx, plan, sqlText)
}

// passThrough runs the query on this backend's node: a planned SELECT
// through its shape, anything else (EXPLAIN) as written.
func (bp *backendProxy) passThrough(ctx context.Context, plan queryPlan, sqlText string) (*engine.Result, error) {
	span := obs.SpanFrom(ctx).Phase("passthrough")
	bp.eng.st.passThrough.Inc()
	span.Annotate("node", strconv.Itoa(bp.proc.node.ID()))
	var res *engine.Result
	var err error
	if plan.shape != nil {
		res, err = bp.proc.QueryStmt(ctx, plan.shape, plan.sel, plan.args)
	} else {
		res, err = bp.proc.Query(ctx, sqlText)
	}
	span.End()
	return res, err
}

// ApplyWrite holds the write at the consistency gate, then forwards it.
// In the relaxed-freshness modes updates are never blocked — the
// trade-off the paper's conclusion proposes to explore.
func (bp *backendProxy) ApplyWrite(ctx context.Context, writeID int64, stmt sql.Statement) (int64, error) {
	if !bp.eng.opts.NoBarrier && bp.eng.opts.MaxStaleness <= 0 {
		if bp.eng.gate.admitWrite(writeID) {
			bp.eng.st.blockedWrites.Inc()
		}
	}
	return bp.proc.ApplyWrite(ctx, writeID, stmt)
}

// Ping probes the node for the controller's recovery loop.
func (bp *backendProxy) Ping(ctx context.Context) error {
	return bp.proc.Ping(ctx)
}

// SetAdmitted propagates the controller's breaker state down to the
// node processor, so a tripped backend drops out of the SVP fan-out and
// the consistency barrier until its write log has been replayed.
func (bp *backendProxy) SetAdmitted(ok bool) { bp.proc.SetAdmitted(ok) }

// Set forwards session settings to the node.
func (bp *backendProxy) Set(st *sql.SetStmt) error {
	bp.proc.node.Set(st.Name, st.Value)
	return nil
}

// Watermark reports the node's replication position for recovery.
func (bp *backendProxy) Watermark() int64 { return bp.proc.node.Watermark() }

// countFallback counts one pass-through under its class's pre-resolved
// counter.
func (e *Engine) countFallback(class string) {
	c, ok := e.st.fallbacks[class]
	if !ok {
		c = e.st.fallbacks[ReasonOther]
	}
	c.Inc()
}

// RunSVP executes one query with Simple Virtual Partitioning, fronted
// by the versioned result cache when one is configured: the canonical
// fingerprint is looked up at the cluster's head epoch (optionally
// accepting results up to MaxStaleEpochs behind), concurrent identical
// queries at one epoch share a single execution (singleflight), and a
// computed result is filled back keyed by the barrier snapshot it was
// pinned to. Per-request control bits (cache.WithControl) can bypass
// the cache or widen the staleness bound. ErrNotEligible means the
// caller should fall back to pass-through; the plan stage decides that
// first, before the cache, admission or the batching window see the
// query. sel stays the caller's: the plan stage works on a copy.
func (e *Engine) RunSVP(ctx context.Context, sel *sql.SelectStmt) (*engine.Result, error) {
	span := obs.SpanFrom(ctx).Phase("plan")
	plan, err := e.plan(sql.CloneSelect(sel), true)
	span.End()
	if err != nil {
		return nil, err
	}
	return e.runPlanned(ctx, plan)
}

// runPlanned is RunSVP after the plan stage, for a plan the route sent to
// SVP.
func (e *Engine) runPlanned(ctx context.Context, plan queryPlan) (*engine.Result, error) {
	ctl := cache.ControlFrom(ctx)
	if e.cache == nil || ctl.NoCache {
		res, _, err := e.admitAndRun(ctx, plan, false)
		return res, err
	}
	qspan := obs.SpanFrom(ctx)
	fp := plan.fp
	maxStale := e.cache.StaleBound(ctl)
	// Brownout: under sustained saturation the degradation ladder raises
	// the effective staleness bound, so more queries are absorbed by
	// slightly-stale cached results instead of executing (nil-safe).
	if f := e.adm.StaleFloor(); f > maxStale {
		maxStale = f
	}
	epoch := e.headEpoch()
	if res, at, ok := e.cache.Lookup(fp, epoch, maxStale); ok {
		e.st.cacheHits.Inc()
		qspan.Annotate("cache", "hit")
		if at < epoch {
			e.st.cacheStaleHits.Inc()
			qspan.Annotate("cache_stale_epochs", strconv.FormatInt(epoch-at, 10))
		}
		return res, nil
	}
	e.st.cacheMisses.Inc()
	res, shared, err := e.cache.Do(ctx, fp, epoch, func() (*engine.Result, error) {
		// Double-checked: a leader that finished between this caller's
		// lookup and its flight-table probe has already filled the epoch.
		if res, _, ok := e.cache.Peek(fp, epoch, maxStale); ok {
			return res, nil
		}
		res, snapshot, err := e.admitAndRun(ctx, plan, true)
		if err == nil {
			// The fill is keyed by the barrier snapshot the sub-queries
			// were pinned to — the epoch the result is actually valid at
			// (>= the lookup epoch when a write slipped in before the
			// barrier converged).
			e.cache.Fill(fp, snapshot, res)
		}
		return res, err
	})
	if shared {
		e.st.cacheShared.Inc()
		qspan.Annotate("cache", "shared")
	}
	return res, err
}

// headEpoch is the cluster's current transaction-counter high water
// mark across live replicas: the epoch cache lookups happen at. Every
// committed write bumps it, which is what makes cache invalidation
// implicit.
func (e *Engine) headEpoch() int64 {
	var h int64
	for _, p := range e.procs {
		if p.Down() {
			continue
		}
		if w := p.TxnCounter(); w > h {
			h = w
		}
	}
	return h
}

// execSVP runs one planned query through the controller's stages —
// snapshot (span barrier-wait) → dispatch → gather → compose — each
// opening its own span on the query span, so with the plan stage's span
// the phases tile the query. The snapshot comes back with the result so
// the caching layer can version its fill; usePartial (set by the caching
// path only) serves warm partitions from the partial cache and fills it
// with cold ones.
func (e *Engine) execSVP(ctx context.Context, plan queryPlan, usePartial bool, resv *admission.Reservation) (*engine.Result, int64, error) {
	r := &svpRun{e: e, plan: plan, ctx: ctx, qspan: obs.SpanFrom(ctx)}
	res, err := r.run(usePartial, resv)
	return res, r.snapshot, err
}

// run executes the plan. Retries and requeues live in dispatch
// and gather only.
func (r *svpRun) run(usePartial bool, resv *admission.Reservation) (*engine.Result, error) {
	if d := r.e.opts.QueryTimeout; d > 0 {
		if _, ok := r.ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			r.ctx, cancel = context.WithTimeout(r.ctx, d)
			defer cancel()
		}
	}
	if err := r.takeSnapshot(resv); err != nil {
		return nil, err
	}
	r.dispatch(usePartial && r.e.cache.PartialEnabled())
	defer r.cancelWork()
	defer r.abortFlights()
	sink, err := r.gather(resv)
	if err != nil {
		return nil, err
	}
	return r.compose(sink)
}

// queryPlan is the plan stage's output, fixed before any node is touched:
// the statement with its WHERE literals lifted (sel, the shape's text),
// its shape and its own arguments, and the result-cache key of the
// statement as written (zero when that cache is off). A query the route
// sends to SVP also carries the shape's rewrite, the virtual partitions
// [v1, v2) the route kept — cut from the CONFIGURED node count, never from
// liveness, so partial-cache keys stay stable across degree changes — and
// the partial-cache key (zero when that cache is off); rw is nil for a
// query that passes through.
type queryPlan struct {
	sel   *sql.SelectStmt
	shape *shape
	args  []sqltypes.Value // the query's own arguments (sql.Parameterize)
	fp    sql.Fingerprint

	rw        *Rewrite
	ranges    [][2]int64
	keySpan   int64 // the keys the ranges cover
	partialFP sql.Fingerprint
}

// plan is the logical stage, a function of the statement, the catalog and
// the key domain: it consults no node and executes nothing. The route and
// the result-cache fingerprint read sel as written; then its WHERE
// literals become arguments in place (sel is the caller's to give up) and
// the shape cache supplies what is planned once per shape. With svp off
// the statement passes through without a route. An ErrNotEligible error
// carries the reason the query passes through, with the plan it passes
// through with.
func (e *Engine) plan(sel *sql.SelectStmt, svp bool) (queryPlan, error) {
	var rt keyRoute
	var err error
	if svp {
		rt, err = e.route(sel)
	}
	var fp sql.Fingerprint
	if err == nil && e.cache != nil {
		fp = sql.FingerprintStmt(sel)
	}
	args := sql.Parameterize(sel, engine.FoldLiteral)
	p := queryPlan{sel: sel, shape: e.shapeOf(sel, len(args)), args: args, fp: fp}
	if !svp {
		return p, nil
	}
	if err == nil {
		err = p.shape.svp(sel, e.catalog)
	}
	if err != nil {
		return p, err
	}
	p.rw = p.shape.rw
	p.ranges = make([][2]int64, rt.last-rt.first)
	for i := range p.ranges {
		v1, v2 := Partition(rt.lo, rt.hi, rt.n, rt.first+i)
		p.ranges[i] = [2]int64{v1, v2}
	}
	p.keySpan = p.ranges[len(p.ranges)-1][1] - p.ranges[0][0]
	// A partial is keyed on the partial as written — the shape with the
	// query's arguments — so two queries of one shape with different
	// literals never share a partial or a flight.
	switch {
	case !e.cache.PartialEnabled():
	case e.opts.MQO:
		// The canonical *sub-plan* form: overlapping decomposed sub-queries
		// of syntactically different parents share partials and flights.
		p.partialFP = sql.SubplanFingerprint(sql.Substitute(p.rw.Partial, args))
	default:
		p.partialFP = sql.FingerprintStmt(sql.Substitute(p.rw.Partial, args))
	}
	return p, nil
}

// svpRun is one query's execution: what its stages share with the
// sub-query goroutines dispatch starts. Each field is set by its stage
// before any goroutine reads it.
type svpRun struct {
	e     *Engine
	plan  queryPlan
	ctx   context.Context // the query's own context (its deadline)
	qspan *obs.Span
	// workCtx cancels every in-flight sub-query stream the moment the
	// gather ends — error, deadline, or a settled LIMIT — so no worker
	// blocks on a gather channel nobody reads anymore.
	workCtx    context.Context
	cancelWork context.CancelFunc

	procs    []*NodeProcessor // the fan-out, one worker per node
	snapshot int64            // the MVCC snapshot every attempt reads
	gated    bool             // the barrier holds the consistency gate

	src   []partSource // per partition when the partial cache is on, else nil
	sch   *fineScheduler
	alive []*NodeProcessor // procs by worker slot; the scheduler nils retired ones
	// msgs carries batches and attempt ends to the gather; its bound is
	// the backpressure budget that blocks producers ahead of the composer.
	msgs       chan gatherMsg
	attemptSeq atomic.Int64
}

// partSource is one partition's source decision: warm rows from the
// partial cache (hit), another query's in-flight execution (follow), or
// this query's own workers — as the partition flight's leader (lead)
// until it publishes the rows.
type partSource struct {
	rows   []sqltypes.Row
	hit    bool
	lead   bool
	follow func(context.Context) ([]sqltypes.Row, error)
}

// takeSnapshot is the consistency stage (span barrier-wait): it picks
// the fan-out and pins the snapshot. The paper's barrier blocks updates
// and waits for equal transaction counters, leaving the gate closed for
// dispatch to reopen; the relaxed modes (NoBarrier, MaxStaleness) read at
// the lagging replica's snapshot without stalling updates.
func (r *svpRun) takeSnapshot(resv *admission.Reservation) error {
	e := r.e
	span := r.qspan.Phase("barrier-wait")
	defer span.End()
	// A crashed node drops out of the fan-out: the survivors cover the
	// whole key domain (degraded intra-query parallelism, not failure).
	if r.procs = e.liveProcs(); len(r.procs) == 0 {
		return fmt.Errorf("no live nodes")
	}
	// The gather channel's slots, one full batch each, are the query's
	// first memory charge: a query that cannot afford them aborts before
	// the barrier blocks any write.
	if err := resv.Grow(int64(e.opts.gatherBudget*len(r.procs)) * gatherSlotBytes); err != nil {
		return err
	}
	start := time.Now()
	var err error
	switch {
	case e.opts.NoBarrier:
		r.snapshot, _ = counterRange(r.procs)
	case e.opts.MaxStaleness > 0:
		r.snapshot, err = e.awaitFreshness(r.ctx, r.procs, e.opts.MaxStaleness)
	default:
		e.gate.block()
		if r.snapshot, r.procs, err = e.gate.awaitConsistent(r.ctx, r.procs, e.opts.barrierTimeout); err != nil {
			e.gate.unblock()
		}
		r.gated = err == nil
	}
	if err != nil {
		return err
	}
	wait := time.Since(start)
	e.st.barrierWait.Add(int64(wait))
	e.m.barrierWait.Observe(wait)
	return nil
}

// dispatch is the scheduling stage (span dispatch). The partitions queue
// on one cluster-level scheduler that every live node pulls from, home
// ranges first, so fast nodes drain it and steal from stragglers. Once
// every worker and flight follower has started, the gate reopens: "when
// all sub-queries are sent and started by the DBMSs, update transactions
// are unblocked."
func (r *svpRun) dispatch(usePartial bool) {
	e := r.e
	span := r.qspan.Phase("dispatch")
	start := time.Now()
	n, nParts := len(r.procs), len(r.plan.ranges)
	r.workCtx, r.cancelWork = context.WithCancel(r.ctx)
	r.msgs = make(chan gatherMsg, e.opts.gatherBudget*n)
	r.sch = newFineScheduler(nParts, n)
	r.alive = slices.Clone(r.procs)
	cached, followed := 0, 0
	if usePartial {
		cached, followed = r.pickSources()
	}
	span.Annotate("partitions", strconv.Itoa(nParts))
	// Every node preclaims its first home partition before any claim loop
	// runs, so each gets its share however the goroutines interleave.
	firsts := make([]int, n)
	for w, p := range r.procs {
		firsts[w] = r.sch.preclaim(w, p)
	}
	for w, p := range r.procs {
		e.subs.Add(1)
		go r.work(w, p, firsts[w])
	}
	for i, s := range r.src {
		if s.follow != nil {
			e.subs.Add(1)
			go r.follow(i, s.follow)
		}
	}
	if r.gated {
		e.gate.unblock()
	}
	if cached > 0 {
		span.Annotate("cached_partitions", strconv.Itoa(cached))
	}
	e.st.svpQueries.Inc()
	e.st.avpPartitions.Add(int64(nParts - cached - followed))
	e.m.dispatch.Observe(time.Since(start))
	span.End()
}

// pickSources decides each partition's source; those the cache or a
// flight answer never enter the queue. Partials match the exact snapshot
// only: partitions captured at different epochs compose to a result valid
// at no single snapshot. Under MQO a cold partition's first concurrent
// query leads its flight and the others follow, receiving exactly the
// rows the leader's winner streamed; a follower whose leader aborts runs
// the partition itself, so sharing is never a correctness dependency.
func (r *svpRun) pickSources() (cached, followed int) {
	e, fp := r.e, r.plan.partialFP
	r.src = make([]partSource, len(r.plan.ranges))
	for i, rg := range r.plan.ranges {
		s := &r.src[i]
		if s.rows, s.hit = e.cache.LookupPartial(fp, rg[0], rg[1], r.snapshot); s.hit {
			e.st.cachePartialHits.Inc()
			r.sch.settle(i)
			cached++
			continue
		}
		e.st.cachePartialMisses.Inc()
		if !e.opts.MQO {
			continue
		}
		if s.lead, s.follow = e.cache.JoinPartialFlight(fp, rg[0], rg[1], r.snapshot); !s.lead {
			r.sch.settle(i)
			followed++
		}
	}
	return cached, followed
}

// abortFlights retires the flights this run still leads when it exits
// without publishing them; their followers then run the partition.
func (r *svpRun) abortFlights() {
	for i, s := range r.src {
		if s.lead {
			r.e.cache.AbortPartialFlight(r.plan.partialFP, r.plan.ranges[i][0], r.plan.ranges[i][1], r.snapshot)
		}
	}
}

// work is node p's claim loop in worker slot w: the preclaimed first
// partition, then home partitions in index order (adjacent key ranges),
// then steals from the most-loaded block. Under AVP a claim run takes
// several adjacent home partitions back-to-back, sized by the adaptive
// chunk rule from the keys/second rate of the last run. The loop takes a
// plan the shape kept on p, or plans its sub-query on its first claim,
// re-opens that plan with each later claim's bounds
// (NodeProcessor.StreamAt) and gives it back to the shape at the end.
func (r *svpRun) work(w int, p *NodeProcessor, first int) {
	defer r.e.subs.Done()
	defer r.sch.workerGone(w, r.alive)
	prep := r.plan.shape.take(planKey{p: p})
	defer func() { r.plan.shape.put(planKey{p: p}, prep) }()
	var ast *avpState
	if r.e.opts.Strategy == AVP {
		ast = &avpState{size: max(r.plan.keySpan/(int64(len(r.procs))*avpInitialFraction), 1)}
	}
	nParts := int64(len(r.plan.ranges))
	partWidth := max((r.plan.keySpan+nParts-1)/nParts, 1)
	idxs, stolen := []int{first}, false
	for {
		if first < 0 {
			maxRun := 1
			if ast != nil {
				maxRun = int(min(max(ast.size/partWidth, 1), maxClaimRun))
			}
			var err error
			if idxs, stolen, err = r.sch.next(r.workCtx, w, p, maxRun); err != nil || len(idxs) == 0 {
				return
			}
			if stolen {
				r.e.st.avpSteals.Inc()
			}
		}
		first = -1
		start := time.Now()
		var keys int64
		for k, idx := range idxs {
			if r.workCtx.Err() != nil {
				return
			}
			t0 := time.Now()
			kk, downErr := r.runClaim(p, idx, stolen, &prep)
			if downErr != nil {
				for _, rest := range idxs[k+1:] {
					r.sch.requeue(rest, p, downErr, r.alive)
				}
				return
			}
			if kk > 0 {
				r.sch.ran(w, time.Since(t0))
			}
			keys += kk
		}
		if ast != nil && keys > 0 {
			ast.adapt(keys, time.Since(start))
		}
	}
}

// runClaim executes one claimed partition on p with the worker's prepared
// plan prep: transient failures retry in place with capped backoff, then
// the partition goes back on the queue for an untried live worker (when
// none is left the scheduler fails the query with this cause). It returns
// the keys answered; a non-nil downErr means p itself is gone and its
// worker must retire.
func (r *svpRun) runClaim(p *NodeProcessor, idx int, stolen bool, prep **engine.Prepared) (keys int64, downErr error) {
	e := r.e
	e.st.subQueries.Inc()
	p.countClaim()
	kind := homeAttempt
	if stolen {
		kind = stolenAttempt
	}
	var bo cluster.Backoff
	for try := 1; ; try++ {
		err := r.attempt(p, idx, kind, try, prep)
		if err == nil {
			return r.plan.ranges[idx][1] - r.plan.ranges[idx][0], nil
		}
		switch err = bo.Retry(r.workCtx, err); {
		case err == nil:
			e.st.backoffRetries.Inc()
		case retryable(err):
			if r.sch.requeue(idx, p, err, r.alive) {
				e.st.subQueryRetries.Inc()
				e.st.avpRequeues.Inc()
			}
			if errors.Is(err, cluster.ErrBackendDown) {
				return 0, err
			}
			return 0, nil
		default: // permanent (semantic) failure no node can answer, or the query ended during the backoff
			return 0, nil
		}
	}
}

// follow feeds partition idx from another query's flight, as a synthetic
// attempt carrying the leader's rows. If the leader aborts, the follower
// runs the partition itself on each live node at most once, least loaded
// first.
func (r *svpRun) follow(idx int, wait func(context.Context) ([]sqltypes.Row, error)) {
	defer r.e.subs.Done()
	rows, werr := wait(r.workCtx)
	if werr == nil {
		attempt := r.attemptSeq.Add(1)
		b := sqltypes.GetBatch()
		b.Rows = append(b.Rows, rows...)
		if r.send(gatherMsg{idx: idx, attempt: attempt, batch: b}) {
			r.send(gatherMsg{idx: idx, attempt: attempt, fin: true})
		}
		return
	}
	var tried []*NodeProcessor
	for r.workCtx.Err() == nil {
		p := r.e.pickLeastLoaded(tried...)
		if p == nil {
			r.send(gatherMsg{idx: idx, attempt: r.attemptSeq.Add(1), fin: true,
				err: fmt.Errorf("partition flight aborted and no live node answered: %w", werr)})
			return
		}
		tried = append(tried, p)
		r.e.st.subQueries.Inc()
		if err := r.attempt(p, idx, followerAttempt, len(tried), nil); !retryable(err) {
			return
		}
	}
}

// attemptKind says who runs an attempt: it picks the subquery span's
// annotations, and whether a failure reaches the gather as a retry (the
// partition is still being worked on) or as final.
type attemptKind uint8

const (
	homeAttempt     attemptKind = iota // a worker's claim from its home block
	stolenAttempt                      // a worker's claim stolen from another block
	followerAttempt                    // a follower running an aborted flight's partition
)

// attempt streams partition idx on node p once, under a fresh attempt ID
// — the controller's only StreamAt call. It charges the dispatch message,
// traces a subquery span (numbered try when try > 0; plan=reused when it
// re-opened its worker's plan), forwards every batch to the gather and
// ends with a fin carrying the outcome. prep is the claiming worker's
// prepared plan; followers, on goroutines of their own, pass nil and plan
// afresh.
//
// The rows are cut from the attempt's own arena, which the fin hands to
// the gather once the node has finished writing into it: a winner's goes
// into the result, any other's back to the pool. When the gather has ended
// the attempt releases it itself. With a cache on, rows may be kept or
// shared past the query, so they are heap rows.
func (r *svpRun) attempt(p *NodeProcessor, idx int, kind attemptKind, try int, prep **engine.Prepared) error {
	id := r.attemptSeq.Add(1)
	sq := r.qspan.Child("subquery")
	sq.Annotate("partition", strconv.Itoa(idx))
	sq.Annotate("node", strconv.Itoa(p.Node().ID()))
	if try > 0 {
		sq.Annotate("attempt", strconv.Itoa(try))
	}
	switch kind {
	case stolenAttempt:
		sq.Annotate("stolen", "true")
	case followerAttempt:
		sq.Annotate("follower", "true")
	}
	args := make([]sqltypes.Value, 0, len(r.plan.args)+2*len(r.plan.rw.VPRefs))
	args = r.plan.rw.appendRangeArgs(append(args, r.plan.args...), r.plan.ranges[idx][0], r.plan.ranges[idx][1])
	p.Node().Meter().Charge(r.e.net.Config().NetMessage)
	var rows *engine.RowArena
	if r.e.cache == nil {
		rows = engine.NewRowArena()
	}
	t0 := time.Now()
	reused, err := p.StreamAt(r.workCtx, r.plan.shape.sub, args, r.snapshot, !r.e.opts.AllowSeqscan, prep, rows, func(b *sqltypes.Batch) error {
		if !r.send(gatherMsg{idx: idx, attempt: id, batch: b}) {
			return r.workCtx.Err()
		}
		return nil
	})
	if reused {
		sq.Annotate("plan", "reused")
	}
	r.e.m.subqueryDur.Observe(time.Since(t0))
	fin := gatherMsg{idx: idx, attempt: id, fin: true, err: err, rows: rows}
	if err == nil {
		r.sch.settle(idx)
	} else {
		sq.Annotate("error", err.Error())
		fin.retry = retryable(err)
	}
	sq.End()
	if !r.send(fin) {
		rows.Release()
	}
	return err
}

// retryable reports whether another attempt may succeed: the node is
// down or the failure is transient, not a semantic error.
func retryable(err error) bool {
	return errors.Is(err, cluster.ErrBackendDown) || errors.Is(err, cluster.ErrTransient)
}

// send delivers m to the gather unless the gather has ended, in which
// case a batch goes back to the pool.
func (r *svpRun) send(m gatherMsg) bool {
	select {
	case r.msgs <- m:
		return true
	case <-r.workCtx.Done():
		if m.batch != nil {
			sqltypes.PutBatch(m.batch)
		}
		return false
	}
}

// compose is the last stage (span compose): the sink composes the
// committed winners in partition order.
func (r *svpRun) compose(sink *memdbSink) (*engine.Result, error) {
	span := r.qspan.Phase("compose")
	defer span.End()
	t0 := time.Now()
	res, err := sink.finish(r.ctx)
	r.e.m.compose.Observe(time.Since(t0))
	if err != nil {
		span.Annotate("error", err.Error())
		if derr := r.e.deadlineErr(err); derr != nil {
			return nil, derr
		}
		return nil, err
	}
	return res, nil
}

// deadlineErr returns err wrapped as an abandoned query, counting the
// abort, when it is the query's deadline or cancellation; otherwise nil.
func (e *Engine) deadlineErr(err error) error {
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		return nil
	}
	e.st.deadlineAborts.Inc()
	return fmt.Errorf("query abandoned at deadline: %w", err)
}

// mirrorBatchPool publishes the process-wide batch-pool counters (the
// pool hit rate is (gets-misses)/gets).
func (e *Engine) mirrorBatchPool() {
	gets, misses := sqltypes.BatchPoolStats()
	e.m.poolGets.Set(gets)
	e.m.poolMisses.Set(misses)
}

// awaitFreshness waits until replica divergence is within the staleness
// bound and returns the lagging replica's watermark as the query
// snapshot. Updates keep flowing the whole time; the wait polls with
// capped exponential backoff and honours the query's deadline.
func (e *Engine) awaitFreshness(ctx context.Context, procs []*NodeProcessor, bound int64) (int64, error) {
	deadline := time.Now().Add(e.opts.barrierTimeout)
	spin := waitSpin
	for {
		lo, hi := counterRange(procs)
		if hi-lo <= bound {
			if hi > lo {
				e.st.staleReads.Inc()
			}
			e.st.observeStaleness(hi - lo)
			return lo, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica divergence %d exceeded staleness bound %d for %v", hi-lo, bound, e.opts.barrierTimeout)
		}
		var err error
		if spin, err = pollWait(ctx, spin); err != nil {
			return 0, fmt.Errorf("freshness wait abandoned: %w", err)
		}
	}
}

// counterRange returns the lowest and highest transaction counter
// across procs.
func counterRange(procs []*NodeProcessor) (lo, hi int64) {
	lo, hi = procs[0].TxnCounter(), procs[0].TxnCounter()
	for _, p := range procs[1:] {
		w := p.TxnCounter()
		lo, hi = min(lo, w), max(hi, w)
	}
	return lo, hi
}

// pickLeastLoaded returns the live node, other than the excluded ones,
// with the fewest statements in flight — the target of a flight
// follower's own attempts.
func (e *Engine) pickLeastLoaded(exclude ...*NodeProcessor) *NodeProcessor {
	var best *NodeProcessor
	for _, p := range e.procs {
		if p.Down() || slices.Contains(exclude, p) {
			continue
		}
		if best == nil || p.Inflight() < best.Inflight() {
			best = p
		}
	}
	return best
}

// liveProcs returns the node processors not currently crashed.
func (e *Engine) liveProcs() []*NodeProcessor {
	return slices.DeleteFunc(slices.Clone(e.procs), (*NodeProcessor).Down)
}
