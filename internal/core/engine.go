package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
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

// Options configures the Apuama Engine.
type Options struct {
	// Strategy is the intra-query technique (default SVP, the paper's).
	Strategy Strategy
	// ForceIndexScan disables sequential scans around SVP sub-queries
	// (the paper's §3 optimizer interference; on by default).
	ForceIndexScan bool
	// PoolSize bounds concurrent statements per node processor.
	PoolSize int
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
	// BarrierTimeout bounds the replica-convergence wait.
	BarrierTimeout time.Duration
	// StreamCompose composes partial results with the hand-rolled
	// streaming merger instead of the memdb (HSQLDB-equivalent) route —
	// an ablation of the paper's composer choice.
	StreamCompose bool
	// GatherBudget bounds the in-flight partial-result batches buffered
	// between the node streams and the composer, per partition: fast
	// producers block once the gather channel holds GatherBudget × nodes
	// undelivered batches (backpressure). Default 8.
	GatherBudget int

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
	// degradation under sustained saturation, and the slow-query killer.
	// The zero value disables all of it (every query admitted, no
	// budget). See DESIGN.md "Overload & graceful degradation".
	Admission admission.Config

	// QueryTimeout is the per-query deadline applied by RunSVP when the
	// caller's context carries none. Zero disables the default deadline.
	QueryTimeout time.Duration
	// RetryLimit bounds in-place retries of a transiently failing
	// sub-query before failing over to another node (default 3).
	RetryLimit int
	// RetryBackoff is the initial retry backoff, doubled per attempt and
	// capped (default 100µs, cap 10ms).
	RetryBackoff time.Duration
	// HedgeMultiplier × the median sub-query completion time is the
	// straggler threshold after which pending partitions are hedged on
	// another live node (default 4; first answer per partition wins).
	HedgeMultiplier float64
	// DisableHedging turns speculative re-dispatch off.
	DisableHedging bool

	// AVPGranularity is the fine-partition fan-out: virtual partitions
	// per configured node, dispatched from one cluster-level queue that
	// every node pulls from (fast nodes drain it and steal from
	// stragglers). 1 pins the classic coarse one-range-per-node split;
	// 0 (auto) targets 32 partitions per node but never cuts a range
	// under avpMinPartKeys keys, so small domains keep the coarse
	// layout. Ranges depend only on the configured node count, never on
	// liveness, keeping partial-cache keys stable across degree changes.
	AVPGranularity int

	// Parallelism is the intra-node morsel-driven degree each node engine
	// applies to the parallel-safe fragment of its sub-query (the second
	// level of parallelism, under the cluster-level SVP/AVP split):
	// 0 = auto (min(GOMAXPROCS, 8), large relations only), 1 = serial,
	// n > 1 = fixed worker count.
	Parallelism int

	// Columnar enables the segment store: node planners replace eligible
	// heap scans with columnar segment scans whose zone maps prune
	// segments (and whole morsels) that cannot match the filter. The heap
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
	// MQOWindow is the admission batching window applied when MQO is on
	// (default 3ms; ignored when MQO is off). It is threaded into
	// Admission.BatchWindow, which releases early on queue depth and
	// switches itself off under brownout.
	MQOWindow time.Duration

	// Metrics, when set, mirrors every engine counter into the registry
	// and attributes per-phase latency (barrier, dispatch, sub-query,
	// gather, compose) to histograms. Nil disables mirroring at zero
	// hot-path cost. Span tracing is independent: the engine records
	// lifecycle spans onto whatever query span the caller placed in the
	// context (obs.WithSpan).
	Metrics *obs.Registry
}

// DefaultOptions mirrors the paper's configuration, with every
// defaultable knob already resolved: the value is a fixed point of the
// engine's option normalization, so it round-trips through New unchanged.
func DefaultOptions() Options {
	return Options{ForceIndexScan: true}.withDefaults()
}

// withDefaults is the one place option defaulting happens. New
// normalizes every caller-supplied Options through it; DefaultOptions
// returns its fixed point. Adding a defaultable knob means adding it
// here (and only here) — the round-trip test in options_test.go catches
// a default applied anywhere else.
func (o Options) withDefaults() Options {
	if o.PoolSize == 0 {
		o.PoolSize = 8
	}
	if o.BarrierTimeout == 0 {
		o.BarrierTimeout = 30 * time.Second
	}
	if o.RetryLimit == 0 {
		o.RetryLimit = defaultRetryLimit
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = defaultRetryBackoff
	}
	if o.HedgeMultiplier == 0 {
		o.HedgeMultiplier = defaultHedgeMultiplier
	}
	if o.GatherBudget <= 0 {
		o.GatherBudget = defaultGatherBudget
	}
	if o.MQO {
		if o.MQOWindow == 0 {
			o.MQOWindow = defaultMQOWindow
		}
		o.Admission.BatchWindow = o.MQOWindow
	}
	return o
}

// Resilience defaults (see DESIGN.md "Failure handling").
const (
	defaultRetryLimit      = 3
	defaultRetryBackoff    = 100 * time.Microsecond
	maxRetryBackoff        = 10 * time.Millisecond
	defaultHedgeMultiplier = 4.0
	// minHedgeDelay floors the straggler threshold so sub-millisecond
	// in-process queries never trigger spurious hedges.
	minHedgeDelay = 10 * time.Millisecond
	// defaultGatherBudget is the per-partition in-flight batch bound of
	// the streaming gather (Options.GatherBudget).
	defaultGatherBudget = 8
	// defaultMQOWindow is the admission batching window MQO applies
	// when Options.MQOWindow is unset: long enough that a dashboard
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

	// st is the engine's counter block (atomic fields; see stats.go) and
	// m the pre-resolved metric handles mirroring it into Options.Metrics.
	st engineStats
	m  engineMetrics

	// wireStats holds an optional func() WireStats provider merged into
	// Snapshot when a wire server is attached.
	wireStats atomic.Value
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
	Hedges               int64 // speculative duplicate sub-queries dispatched
	HedgesWon            int64 // hedges that answered before the original
	HedgesLost           int64 // hedges beaten by the original
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

// New builds an Apuama Engine over the given nodes.
func New(db *engine.Database, nodes []*engine.Node, catalog *Catalog, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		db:      db,
		catalog: catalog,
		mem:     memdb.New(),
		gate:    newBlocker(),
		opts:    opts,
		net:     costmodel.NewMeter(db.Config()),
		cache:   cache.New(opts.Cache, opts.Metrics),
		m:       newEngineMetrics(opts.Metrics),
	}
	if admCfg := opts.Admission; admCfg.Enabled() {
		if admCfg.Metrics == nil {
			admCfg.Metrics = opts.Metrics
		}
		e.adm = admission.New(admCfg)
	}
	e.st.wire(opts.Metrics)
	// Columnar is a database-wide planner switch (segments live on the
	// shared relations); set it before any node serves a query. MQO
	// likewise: it swaps eligible columnar scans for shared-scan
	// consumers in every node planner.
	db.SetColumnar(opts.Columnar)
	db.SetMQO(opts.MQO)
	for _, nd := range nodes {
		if opts.Parallelism != 0 {
			// Make the degree the node's default too, so pass-through
			// (non-SVP) queries on the same node honour it.
			nd.SetDefaultParallelism(opts.Parallelism)
		}
		p := NewNodeProcessor(nd, opts.PoolSize)
		p.parallelism = opts.Parallelism
		// Brownout consultation: under saturation the admission ladder
		// caps the intra-node degree every sub-query runs with (a nil
		// controller's DegreeCap reports 0 = uncapped).
		p.capDegree = e.adm.DegreeCap
		p.setObs(opts.Metrics)
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

// Admission exposes the overload-protection controller (nil when
// Options.Admission is disabled); the daemon's stats endpoint and tests
// read its counters and force brownout levels through it.
func (e *Engine) Admission() *admission.Controller { return e.adm }

// Close releases the engine's background resources: the admission
// controller's sweeper goroutine and any queued admission waiters (shed
// with an overload error). Safe on an engine without admission.
func (e *Engine) Close() {
	e.adm.Close()
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

// Query intercepts OLAP queries: eligible ones run with intra-query
// parallelism across every node; everything else passes straight through
// to this backend's node, untouched (OLTP is C-JDBC's business).
func (bp *backendProxy) Query(ctx context.Context, sqlText string) (*engine.Result, error) {
	if !bp.eng.opts.DisableSVP {
		stmt, err := sql.Parse(sqlText)
		if err != nil {
			return nil, err
		}
		if sel, ok := stmt.(*sql.SelectStmt); ok {
			res, err := bp.eng.RunSVP(ctx, sel)
			if err == nil {
				return res, nil
			}
			if !errors.Is(err, ErrNotEligible) {
				return nil, err
			}
			bp.eng.countFallback(err)
			obs.SpanFrom(ctx).Annotate("svp_fallback", FallbackClass(err))
		}
	}
	bp.eng.st.passThrough.Inc()
	span := obs.SpanFrom(ctx).Child("passthrough")
	span.Annotate("node", strconv.Itoa(bp.proc.node.ID()))
	res, err := bp.proc.Query(ctx, sqlText)
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

func (e *Engine) countFallback(err error) {
	class := FallbackClass(err)
	e.st.fbMu.Lock()
	e.st.fallbackReasons[class]++
	e.st.fbMu.Unlock()
	// Fallbacks are off the hot path; the labeled counter is resolved
	// per event to keep the handle set bounded by FallbackClass.
	e.m.reg.Counter(obs.Labeled(obs.MFallbacks, "reason", class)).Inc()
}

// RunSVP executes one query with Simple Virtual Partitioning, fronted
// by the versioned result cache when one is configured: the canonical
// fingerprint is looked up at the cluster's head epoch (optionally
// accepting results up to MaxStaleEpochs behind), concurrent identical
// queries at one epoch share a single execution (singleflight), and a
// computed result is filled back keyed by the barrier snapshot it was
// pinned to. Per-request control bits (cache.WithControl) can bypass
// the cache or widen the staleness bound. ErrNotEligible means the
// caller should fall back to pass-through.
func (e *Engine) RunSVP(ctx context.Context, sel *sql.SelectStmt) (*engine.Result, error) {
	ctl := cache.ControlFrom(ctx)
	if e.cache == nil || ctl.NoCache {
		res, _, err := e.admitAndRun(ctx, sel, false)
		return res, err
	}
	qspan := obs.SpanFrom(ctx)
	fp := sql.FingerprintStmt(sel)
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
		res, snapshot, err := e.admitAndRun(ctx, sel, true)
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

// runSVP executes one query with Simple Virtual Partitioning: plan the
// rewrite, run the consistency barrier, dispatch one sub-query per node
// pinned to the common snapshot, and compose the partial results. It
// returns the snapshot alongside the result so the caching layer can
// version its fill. usePartial lets warm partitions be served from the
// partition-level partial cache (and cold ones fill it) — only the
// caching path sets it.
// ErrNotEligible means the caller should fall back to pass-through.
//
// Sub-query results stream batch-at-a-time into the composer: the
// gather loop forwards each arriving batch to a composeSink (see
// gather.go), so memdb inserts / aggregate folding begin on the first
// batch instead of after the last partition, bounded by
// Options.GatherBudget in-flight batches per partition. Partition-order
// float composition is preserved by the sinks. A pushed-down LIMIT with
// no global ordering lets the gather cancel the remaining sub-queries
// once the committed partition prefix already holds k rows.
//
// Resilience (beyond the paper): the query runs under ctx, bounded by
// Options.QueryTimeout when ctx has no deadline of its own; transient
// sub-query failures retry in place with capped exponential backoff;
// a crashed node's partition fails over across the remaining live
// nodes; and stragglers past HedgeMultiplier × the median completion
// time are hedged on the least-loaded live node, first answer winning
// (safe because every attempt reads the same pinned MVCC snapshot).
// Attempts are identity-tagged, so the sink can discard a partially
// streamed attempt that fails or loses its hedge race after delivering
// batches.
func (e *Engine) runSVP(ctx context.Context, sel *sql.SelectStmt, usePartial bool, resv *admission.Reservation) (*engine.Result, int64, error) {
	// The query span (placed in ctx by the facade when tracing is on)
	// receives one child per lifecycle phase, each opening where the last
	// one ended so the phases tile the query; a nil span no-ops. The plan
	// span opens out here, before runPhases is entered, for the clock's
	// sake: that frame is big enough that a fresh handler goroutine grows
	// its stack on the call (≈ 6 µs, 3 % of a point lookup), which a span
	// opened inside it could not see.
	qspan := obs.SpanFrom(ctx)
	return e.runPhases(ctx, sel, usePartial, resv, qspan, qspan.Child("plan"))
}

// runPhases is the body of runSVP: every phase after the plan span opens.
func (e *Engine) runPhases(ctx context.Context, sel *sql.SelectStmt, usePartial bool, resv *admission.Reservation, qspan, planSpan *obs.Span) (*engine.Result, int64, error) {
	if e.opts.QueryTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.opts.QueryTimeout)
			defer cancel()
		}
	}
	rw, err := PlanSVP(sel, e.catalog)
	if err != nil {
		planSpan.End()
		return nil, 0, err
	}
	lo, hi, err := e.catalog.KeyDomain(e.db, rw.Table)
	planSpan.End()
	if err != nil {
		return nil, 0, notEligible(ReasonKeyDomain, "%v", err)
	}
	// A crashed node drops out of the fan-out: the survivors cover the
	// whole key domain with fewer, larger partitions (degraded
	// intra-query parallelism rather than failure).
	procs := e.liveProcs()
	if len(procs) == 0 {
		return nil, 0, fmt.Errorf("no live nodes")
	}
	n := len(procs)

	// The gather channel's slots are the query's first memory charge:
	// each can hold one full batch in flight, so the whole backpressure
	// buffer is reserved up front — a query that cannot even afford its
	// gather buffer aborts here, before the barrier blocks any write and
	// before any sub-query dispatches.
	if err := resv.Grow(int64(e.opts.GatherBudget*n) * gatherSlotBytes); err != nil {
		return nil, 0, err
	}

	// Consistency barrier: block updates, wait for equal transaction
	// counters, capture the snapshot, dispatch, unblock. The relaxed
	// modes (NoBarrier, MaxStaleness) instead read at the lagging
	// replica's snapshot without stalling updates.
	var snapshot int64
	barrier := !e.opts.NoBarrier && e.opts.MaxStaleness <= 0
	barSpan := qspan.Child("barrier-wait")
	start := time.Now()
	switch {
	case e.opts.NoBarrier:
		snapshot = minWatermark(procs)
	case e.opts.MaxStaleness > 0:
		snapshot, err = e.awaitFreshness(ctx, procs, e.opts.MaxStaleness)
		if err != nil {
			barSpan.End()
			return nil, 0, err
		}
	default:
		e.gate.block()
		snapshot, err = e.gate.awaitConsistent(ctx, procs, e.opts.BarrierTimeout)
		if err != nil {
			e.gate.unblock()
			barSpan.End()
			return nil, 0, err
		}
	}
	barWait := time.Since(start)
	barSpan.End()
	// Partitioning, cache probes and scheduler set-up are dispatch work.
	dispSpan := qspan.Child("dispatch")
	dispStart := time.Now()
	e.st.barrierWait.Add(int64(barWait))
	e.m.barrierWait.Observe(barWait)

	// workCtx cancels every in-flight sub-query stream the moment the
	// gather ends — error, deadline, or a settled LIMIT. Without it,
	// workers could block forever sending into a full gather channel
	// nobody reads anymore.
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()

	// Fine-grained virtual partitions: the key domain is cut into nParts
	// small ranges computed from the CONFIGURED node count — never from
	// liveness — so partial-cache keys stay stable across degree changes.
	// The ranges queue on one cluster-level scheduler that every live
	// node pulls from: a worker claims its next partition when it
	// finishes the last, so fast nodes drain the queue and naturally
	// steal work from stragglers (locality-preferring: home ranges
	// first). Each claimed partition streams its rows batch-by-batch into
	// the gather channel, ending each attempt with a fin message; workers
	// retry transient errors in place and requeue a dead node's
	// partitions for the survivors (announcing the abandoned attempt so
	// the sink can drop its rows). The gather adds at most one in-flight
	// hedge as an endgame fallback. The channel bound is the backpressure
	// budget: producers ahead of the composer block here.
	keySpan := hi - lo + 1
	nParts := e.fineParts(keySpan)
	ranges := make([][2]int64, nParts)
	for i := range ranges {
		v1, v2 := Partition(lo, hi, nParts, i)
		ranges[i] = [2]int64{v1, v2}
	}

	msgs := make(chan gatherMsg, e.opts.GatherBudget*n)
	var attemptSeq atomic.Int64
	cfg := e.net.Config()
	send := func(m gatherMsg) bool {
		select {
		case msgs <- m:
			return true
		case <-workCtx.Done():
			if m.batch != nil {
				sqltypes.PutBatch(m.batch)
			}
			return false
		}
	}

	// Partition-level partial cache: probe each partition's (sub-query
	// fingerprint, VPA range, snapshot) key before workers start. A warm
	// partition never enters the queue and feeds the composer as a
	// synthetic attempt below; only the missing ranges go to the nodes.
	// Exact-snapshot matches only — composing partitions captured at
	// different epochs would yield a result valid at no single snapshot.
	usePartial = usePartial && e.cache.PartialEnabled()
	var partialFP sql.Fingerprint
	if usePartial {
		if e.opts.MQO {
			// MQO keys partials by the canonical *sub-plan* form, so
			// overlapping decomposed sub-queries from syntactically
			// different parents land on one key — the partial cache and
			// the partition flights below collapse them.
			partialFP = sql.SubplanFingerprint(rw.Partial)
		} else {
			partialFP = sql.FingerprintStmt(rw.Partial)
		}
	}
	sch := newFineScheduler(ranges, n)
	cachedRows := make([][]sqltypes.Row, nParts)
	cachedParts := make([]bool, nParts)
	cached := 0
	if usePartial {
		for i := range ranges {
			if rows, ok := e.cache.LookupPartial(partialFP, ranges[i][0], ranges[i][1], snapshot); ok {
				cachedRows[i], cachedParts[i] = rows, true
				e.st.cachePartialHits.Inc()
				sch.markDone(i)
				cached++
				continue
			}
			e.st.cachePartialMisses.Inc()
		}
	}

	// Partition-level singleflight (MQO): for each still-cold partition,
	// the first concurrent query whose sub-plan decomposition lands on
	// (partialFP, range, snapshot) becomes the partition's leader and
	// executes it normally; every other query joins as a follower — the
	// partition leaves its scheduler queue and a waiter goroutine feeds
	// the leader's published rows into the gather as a synthetic
	// attempt. A leader that exits without publishing aborts its flights
	// (deferred below), and an aborted follower re-executes the
	// partition itself: sharing is an optimization, never a correctness
	// dependency. Bit-identity holds because followers receive exactly
	// the rows the leader's attempt streamed, committed in the same
	// partition-index order.
	var leaders []bool
	var followerWait []func(context.Context) ([]sqltypes.Row, error)
	followers := 0
	if usePartial && e.opts.MQO {
		leaders = make([]bool, nParts)
		followerWait = make([]func(context.Context) ([]sqltypes.Row, error), nParts)
		for i := range ranges {
			if cachedParts[i] {
				continue
			}
			lead, wait := e.cache.JoinPartialFlight(partialFP, ranges[i][0], ranges[i][1], snapshot)
			if lead {
				leaders[i] = true
				continue
			}
			followerWait[i] = wait
			sch.markDone(i)
			followers++
		}
		defer func() {
			for i, l := range leaders {
				if l {
					e.cache.AbortPartialFlight(partialFP, ranges[i][0], ranges[i][1], snapshot)
				}
			}
		}()
	}

	// alive mirrors procs by worker slot; the scheduler nils a slot when
	// its worker retires (all access under the scheduler's lock).
	alive := make([]*NodeProcessor, n)
	copy(alive, procs)

	// runOne executes one claimed partition on p: stream, transient
	// retries in place, then requeue for the surviving workers. A non-nil
	// downErr means p itself is gone and its worker must retire.
	runOne := func(p *NodeProcessor, idx int, stolen bool) (keys int64, downErr error) {
		sub := rw.chunkQuery(ranges[idx][0], ranges[idx][1])
		backoff := e.opts.RetryBackoff
		retries := 0
		try := 0
		for {
			try++
			attempt := attemptSeq.Add(1)
			if try == 1 {
				e.st.subQueries.Inc()
				p.countClaim()
			}
			sq := qspan.Child("subquery")
			sq.Annotate("partition", strconv.Itoa(idx))
			sq.Annotate("node", strconv.Itoa(p.Node().ID()))
			sq.Annotate("attempt", strconv.Itoa(try))
			if stolen {
				sq.Annotate("stolen", "true")
			}
			p.Node().Meter().Charge(cfg.NetMessage)
			t0 := time.Now()
			qerr := p.StreamAt(workCtx, sub, snapshot, e.opts.ForceIndexScan, func(b *sqltypes.Batch) error {
				if !send(gatherMsg{idx: idx, attempt: attempt, batch: b}) {
					return workCtx.Err()
				}
				return nil
			})
			dur := time.Since(t0)
			e.m.subqueryDur.Observe(dur)
			if qerr != nil {
				sq.Annotate("error", qerr.Error())
			}
			sq.End()
			if qerr == nil {
				sch.complete(idx)
				send(gatherMsg{idx: idx, attempt: attempt, fin: true, dur: dur})
				return ranges[idx][1] - ranges[idx][0], nil
			}
			if errors.Is(qerr, cluster.ErrTransient) && retries < e.opts.RetryLimit {
				retries++
				e.st.backoffRetries.Inc()
				if !send(gatherMsg{idx: idx, attempt: attempt, fin: true, err: qerr, retry: true}) {
					return 0, nil
				}
				if sleepCtx(workCtx, backoff) != nil {
					return 0, nil
				}
				backoff = capDur(backoff*2, maxRetryBackoff)
				continue
			}
			if down := errors.Is(qerr, cluster.ErrBackendDown); down || errors.Is(qerr, cluster.ErrTransient) {
				// Fail the partition over: back on the queue for whichever
				// untried live worker claims it next. When none is left the
				// scheduler fails the whole query with this cause.
				if sch.requeue(idx, p, qerr, alive) {
					e.st.subQueryRetries.Inc()
					e.st.avpRequeues.Inc()
				}
				send(gatherMsg{idx: idx, attempt: attempt, fin: true, err: qerr, retry: true})
				if down {
					return 0, qerr
				}
				return 0, nil
			}
			// Permanent (semantic) failure: no node can answer this.
			send(gatherMsg{idx: idx, attempt: attempt, fin: true, err: qerr})
			return 0, nil
		}
	}
	// worker is node p's claim loop: home partitions first (adjacent key
	// ranges, in index order), then steal from the most-loaded block. AVP
	// reuses the adaptive chunk sizing as a claim-run length — a run of
	// adjacent home partitions executes back-to-back and the observed
	// keys/second rate resizes the next run.
	partWidth := (keySpan + int64(nParts) - 1) / int64(nParts)
	worker := func(w int, p *NodeProcessor, first int) {
		var ast *avpState
		if e.opts.Strategy == AVP {
			ast = &avpState{size: max64(keySpan/(int64(n)*avpInitialFraction), 1)}
		}
		runClaims := func(idxs []int, stolen bool) bool {
			runStart := time.Now()
			var keys int64
			for k, idx := range idxs {
				if workCtx.Err() != nil {
					return false
				}
				kk, downErr := runOne(p, idx, stolen)
				keys += kk
				if downErr != nil {
					for _, rest := range idxs[k+1:] {
						sch.requeue(rest, p, downErr, alive)
					}
					return false
				}
			}
			if ast != nil && keys > 0 {
				ast.adapt(keys, time.Since(runStart))
			}
			return true
		}
		if first >= 0 && !runClaims([]int{first}, false) {
			sch.workerGone(w, alive)
			return
		}
		for {
			maxRun := 1
			if ast != nil {
				maxRun = int(max64(ast.size/max64(partWidth, 1), 1))
				if maxRun > maxClaimRun {
					maxRun = maxClaimRun
				}
			}
			idxs, stolen, err := sch.next(workCtx, w, p, maxRun)
			if err != nil || len(idxs) == 0 {
				break
			}
			if stolen {
				e.st.avpSteals.Inc()
			}
			if !runClaims(idxs, stolen) {
				break
			}
		}
		sch.workerGone(w, alive)
	}

	dispSpan.Annotate("partitions", strconv.Itoa(nParts))
	// Every live node preclaims its first home partition before any claim
	// loop runs: each node is guaranteed its share of the fan-out however
	// the goroutines interleave.
	firsts := make([]int, n)
	for w := range procs {
		firsts[w] = -1
		if idx, ok := sch.preclaim(w, procs[w]); ok {
			firsts[w] = idx
		}
	}
	for w, p := range procs {
		go worker(w, p, firsts[w])
	}
	// Follower waiters: one goroutine per flight-joined partition feeds
	// the leader's rows into the gather as a synthetic attempt. If the
	// leader aborts, the follower re-executes the partition itself on
	// the least-loaded live nodes (failing over once per live node like
	// a requeue would).
	runFollower := func(idx int, wait func(context.Context) ([]sqltypes.Row, error)) {
		attempt := attemptSeq.Add(1)
		rows, werr := wait(workCtx)
		if werr == nil {
			b := sqltypes.GetBatch()
			b.Rows = append(b.Rows, rows...)
			if send(gatherMsg{idx: idx, attempt: attempt, batch: b}) {
				send(gatherMsg{idx: idx, attempt: attempt, fin: true})
			}
			return
		}
		if workCtx.Err() != nil {
			return
		}
		sub := rw.chunkQuery(ranges[idx][0], ranges[idx][1])
		var last *NodeProcessor
		for tries := 0; tries < len(e.procs); tries++ {
			p := e.pickLeastLoadedExcept(last)
			if p == nil {
				break
			}
			attempt = attemptSeq.Add(1)
			e.st.subQueries.Inc()
			p.Node().Meter().Charge(cfg.NetMessage)
			t0 := time.Now()
			qerr := p.StreamAt(workCtx, sub, snapshot, e.opts.ForceIndexScan, func(b *sqltypes.Batch) error {
				if !send(gatherMsg{idx: idx, attempt: attempt, batch: b}) {
					return workCtx.Err()
				}
				return nil
			})
			if qerr == nil {
				send(gatherMsg{idx: idx, attempt: attempt, fin: true, dur: time.Since(t0)})
				return
			}
			if workCtx.Err() != nil {
				return
			}
			if errors.Is(qerr, cluster.ErrBackendDown) || errors.Is(qerr, cluster.ErrTransient) {
				send(gatherMsg{idx: idx, attempt: attempt, fin: true, err: qerr, retry: true})
				last = p
				continue
			}
			send(gatherMsg{idx: idx, attempt: attempt, fin: true, err: qerr})
			return
		}
		send(gatherMsg{idx: idx, attempt: attemptSeq.Add(1), fin: true,
			err: fmt.Errorf("partition flight aborted and no live node answered: %w", werr)})
	}
	for i := range followerWait {
		if followerWait[i] != nil {
			go runFollower(i, followerWait[i])
		}
	}
	// "When all sub-queries are sent and started by the DBMSs, update
	// transactions are unblocked."
	if barrier {
		e.gate.unblock()
	}
	if cached > 0 {
		dispSpan.Annotate("cached_partitions", strconv.Itoa(cached))
	}
	dispSpan.End()
	gatherSpan := qspan.Child("gather")
	gatherStart := time.Now()
	// End() keeps the first duration, so the success path's explicit End
	// (before compose) wins and the deferred one only covers error
	// returns out of the gather loop.
	defer gatherSpan.End()
	e.m.dispatch.Observe(gatherStart.Sub(dispStart))
	e.st.svpQueries.Inc()
	e.st.avpPartitions.Add(int64(nParts - cached - followers))

	// Gather with endgame hedging: batches feed the composer sink as they
	// arrive, but commits happen in partition order inside the sink —
	// floating-point aggregates are not associative, so arrival-order
	// composition would make the answer depend on which node ran which
	// partition. That partition-index merge rule is what keeps results
	// bit-identical across schedules, steals and hedges. Once at least
	// one partition has answered, the single oldest in-flight attempt
	// past HedgeMultiplier × the median completion time is speculatively
	// duplicated on the least-loaded other live node; with fine
	// partitions stealing does the load balancing, so one hedge at a time
	// only covers a node that stalls mid-partition.
	sink := e.newComposeSink(rw, nParts, resv)
	var totalRows int64
	var firstErr, pendingErr, schedErr error
	done := make([]bool, nParts)
	doneRows := make([]int64, nParts)
	hedged := make([]bool, nParts)
	hedgeFor := -1
	rowsByAttempt := map[int64]int64{}
	var completions []time.Duration
	completed := 0
	settled := false
	sawFirstBatch := false
	// A pushed-down LIMIT with no global ordering or DISTINCT is settled
	// as soon as the committed partition prefix holds k rows: composition
	// takes the leading rows in partition order, all already gathered.
	earlyStop := rw.PushedLimit > 0 && len(rw.Compose.OrderBy) == 0 && !rw.Compose.Distinct
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	stopHedge := func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
			hedgeTimer = nil
			hedgeC = nil
		}
	}
	defer stopHedge()
	// armHedge points the single hedge timer at the oldest attempt still
	// in flight, skipping partitions the gather has already settled.
	armHedge := func() {
		if e.opts.DisableHedging || e.adm.HedgingDisabled() || hedgeTimer != nil || hedgeFor >= 0 {
			return
		}
		if len(completions) == 0 || completed >= nParts {
			return
		}
		_, _, began, ok := sch.oldestRunning(func(i int) bool { return done[i] })
		if !ok {
			return
		}
		th := hedgeThreshold(completions, e.opts.HedgeMultiplier)
		hedgeTimer = time.NewTimer(time.Until(began.Add(th)))
		hedgeC = hedgeTimer.C
	}
	// hedge duplicates one partition's attempt on another node — a single
	// shot, no retries: the original attempt is still running, and the
	// first answer per partition wins (safe because every attempt reads
	// the same pinned MVCC snapshot).
	hedge := func(p *NodeProcessor, idx int) {
		sub := rw.chunkQuery(ranges[idx][0], ranges[idx][1])
		go func() {
			attempt := attemptSeq.Add(1)
			sq := qspan.Child("subquery")
			sq.Annotate("partition", strconv.Itoa(idx))
			sq.Annotate("node", strconv.Itoa(p.Node().ID()))
			sq.Annotate("hedged", "true")
			p.Node().Meter().Charge(cfg.NetMessage)
			t0 := time.Now()
			qerr := p.StreamAt(workCtx, sub, snapshot, e.opts.ForceIndexScan, func(b *sqltypes.Batch) error {
				if !send(gatherMsg{idx: idx, attempt: attempt, hedge: true, batch: b}) {
					return workCtx.Err()
				}
				return nil
			})
			dur := time.Since(t0)
			e.m.subqueryDur.Observe(dur)
			if qerr != nil {
				sq.Annotate("error", qerr.Error())
				sq.End()
				send(gatherMsg{idx: idx, attempt: attempt, hedge: true, fin: true, err: qerr})
				return
			}
			sq.End()
			send(gatherMsg{idx: idx, attempt: attempt, hedge: true, fin: true, dur: dur})
		}()
	}
	sinkErr := func(err error) error {
		return fmt.Errorf("composer: %w", err)
	}
	// Warm partitions feed the sink as synthetic attempts before the
	// gather starts — the same observe/commit path as live streams, so
	// partition-order composition and LIMIT accounting are unchanged.
	for i := range cachedParts {
		if !cachedParts[i] {
			continue
		}
		attempt := attemptSeq.Add(1)
		b := sqltypes.GetBatch()
		b.Rows = append(b.Rows, cachedRows[i]...)
		if err := sink.observe(i, attempt, b); err != nil {
			return nil, 0, sinkErr(err)
		}
		if err := sink.commit(i, attempt); err != nil {
			return nil, 0, sinkErr(err)
		}
		done[i] = true
		doneRows[i] = int64(len(cachedRows[i]))
		totalRows += doneRows[i]
		completed++
	}
	if earlyStop && completed < nParts && prefixHolds(done, doneRows, rw.PushedLimit) {
		settled = true
		e.st.limitShortCircuits.Inc()
		cancelWork()
	}
	// keepRows retains each live attempt's streamed rows so a partition
	// winner can fill the partial cache (rows stay valid after the sink
	// pools the batch — the batch ownership contract).
	var keepRows map[int64][]sqltypes.Row
	if usePartial {
		keepRows = map[int64][]sqltypes.Row{}
	}
	schedFailed := sch.failedC()
gather:
	for !settled && completed < nParts {
		select {
		case m := <-msgs:
			switch {
			case m.batch != nil:
				if done[m.idx] {
					// Rows from a hedge twin that already lost its race.
					sqltypes.PutBatch(m.batch)
					continue
				}
				if !sawFirstBatch {
					sawFirstBatch = true
					d := time.Since(gatherStart)
					e.m.firstBatch.Observe(d)
					gatherSpan.Annotate("first_batch", d.String())
				}
				nb := int64(m.batch.Len())
				e.st.streamedBatches.Inc()
				e.st.streamedRows.Add(nb)
				rowsByAttempt[m.attempt] += nb
				if keepRows != nil {
					keepRows[m.attempt] = append(keepRows[m.attempt], m.batch.Rows...)
				}
				if err := sink.observe(m.idx, m.attempt, m.batch); err != nil {
					return nil, 0, sinkErr(err)
				}
			case m.retry:
				// The worker abandoned this attempt; the partition is back
				// on the queue (or the schedule failed — see schedFailed).
				if err := sink.abort(m.idx, m.attempt); err != nil {
					return nil, 0, sinkErr(err)
				}
				delete(rowsByAttempt, m.attempt)
				delete(keepRows, m.attempt)
			case m.err != nil:
				if err := sink.abort(m.idx, m.attempt); err != nil {
					return nil, 0, sinkErr(err)
				}
				delete(rowsByAttempt, m.attempt)
				delete(keepRows, m.attempt)
				if m.hedge {
					// The speculative twin failed; the original attempt may
					// yet answer — unless it already failed too.
					if hedgeFor == m.idx {
						hedgeFor = -1
					}
					if !done[m.idx] && pendingErr != nil {
						firstErr = pendingErr
						break gather
					}
					if schedErr != nil {
						firstErr = schedErr
						break gather
					}
					armHedge()
					continue
				}
				if done[m.idx] {
					continue
				}
				if hedgeFor == m.idx {
					// The original failed permanently but its hedge is still
					// in flight: hold judgement until the hedge resolves.
					pendingErr = m.err
					continue
				}
				firstErr = m.err
				break gather
			default: // fin: the attempt completed
				if done[m.idx] {
					// A duplicate answer for a hedged partition: the
					// earlier arrival already won this race.
					if err := sink.abort(m.idx, m.attempt); err != nil {
						return nil, 0, sinkErr(err)
					}
					delete(rowsByAttempt, m.attempt)
					delete(keepRows, m.attempt)
					continue
				}
				done[m.idx] = true
				if hedged[m.idx] {
					if m.hedge {
						e.st.hedgesWon.Inc()
					} else {
						e.st.hedgesLost.Inc()
					}
				}
				if hedgeFor == m.idx {
					hedgeFor = -1
					pendingErr = nil
				}
				if m.hedge {
					// Tell the scheduler, so the losing worker's eventual
					// completion is a no-op and requeues stop targeting it.
					sch.forceDone(m.idx)
				}
				completed++
				if m.dur > 0 {
					completions = append(completions, m.dur)
				}
				doneRows[m.idx] = rowsByAttempt[m.attempt]
				totalRows += doneRows[m.idx]
				delete(rowsByAttempt, m.attempt)
				if err := sink.commit(m.idx, m.attempt); err != nil {
					return nil, 0, sinkErr(err)
				}
				if keepRows != nil {
					if followerWait != nil && followerWait[m.idx] != nil {
						// Served by another query's leader: that leader fills
						// the partial cache; refilling the same key here would
						// only double the fill counters.
						delete(keepRows, m.attempt)
					} else {
						e.cache.FillPartial(partialFP, ranges[m.idx][0], ranges[m.idx][1], snapshot, keepRows[m.attempt])
						if leaders != nil && leaders[m.idx] {
							// Publish to this partition's flight followers and
							// retire the leadership so the deferred abort
							// leaves the settled flight alone.
							e.cache.FinishPartialFlight(partialFP, ranges[m.idx][0], ranges[m.idx][1], snapshot, keepRows[m.attempt])
							leaders[m.idx] = false
						}
						delete(keepRows, m.attempt)
					}
				}
				if earlyStop && prefixHolds(done, doneRows, rw.PushedLimit) {
					settled = true
					e.st.limitShortCircuits.Inc()
					cancelWork()
					break gather
				}
				if schedErr != nil && hedgeFor < 0 && completed < nParts {
					// The hedge settled its partition, but the schedule had
					// already failed elsewhere.
					firstErr = schedErr
					break gather
				}
				armHedge()
			}
		case <-hedgeC:
			hedgeTimer = nil
			hedgeC = nil
			if hedgeFor >= 0 || len(completions) == 0 {
				continue
			}
			idx, runner, began, ok := sch.oldestRunning(func(i int) bool { return done[i] })
			if !ok {
				continue
			}
			th := hedgeThreshold(completions, e.opts.HedgeMultiplier)
			if time.Since(began) < th {
				// The oldest in-flight attempt changed since the timer was
				// set; re-aim at the new one.
				hedgeTimer = time.NewTimer(time.Until(began.Add(th)))
				hedgeC = hedgeTimer.C
				continue
			}
			alt := e.pickLeastLoadedExcept(runner)
			if alt == nil {
				continue
			}
			hedged[idx] = true
			hedgeFor = idx
			e.st.hedges.Inc()
			e.st.subQueries.Inc()
			hedge(alt, idx)
		case <-schedFailed:
			// No live untried node is left for some partition (or every
			// worker retired with work pending): the query cannot finish.
			schedFailed = nil
			schedErr = sch.Err()
			if hedgeFor < 0 {
				firstErr = schedErr
				break gather
			}
			// A hedge is still racing for a stuck partition; it may yet
			// settle the query on its own.
		case <-ctx.Done():
			// Abandon the gather: the deferred cancelWork releases the
			// workers' pending sends.
			e.st.deadlineAborts.Inc()
			return nil, 0, fmt.Errorf("query abandoned at deadline: %w", ctx.Err())
		}
	}
	if !settled && completed < nParts {
		if firstErr == nil {
			firstErr = pendingErr
		}
		if firstErr == nil {
			firstErr = schedErr
		}
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if errors.Is(firstErr, context.DeadlineExceeded) || errors.Is(firstErr, context.Canceled) {
			e.st.deadlineAborts.Inc()
			return nil, 0, fmt.Errorf("query abandoned at deadline: %w", firstErr)
		}
		return nil, 0, fmt.Errorf("sub-query failed: %w", firstErr)
	}
	gatherSpan.End()
	e.m.gather.Observe(time.Since(gatherStart))
	e.net.Charge(time.Duration(totalRows) * cfg.NetPerRow)
	e.net.Flush()
	e.st.composedRows.Add(totalRows)
	e.mirrorBatchPool()

	span := qspan.Child("compose")
	t0 := time.Now()
	res, err := sink.finish(ctx)
	e.m.compose.Observe(time.Since(t0))
	if err != nil {
		span.Annotate("error", err.Error())
		span.End()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			e.st.deadlineAborts.Inc()
			return nil, 0, fmt.Errorf("query abandoned at deadline: %w", err)
		}
		return nil, 0, err
	}
	span.End()
	return res, snapshot, nil
}

// prefixHolds reports whether the committed prefix of partitions already
// holds at least k rows (the early-stop condition of a pushed-down LIMIT).
func prefixHolds(done []bool, rows []int64, k int64) bool {
	var sum int64
	for i := range done {
		if !done[i] {
			return false
		}
		sum += rows[i]
		if sum >= k {
			return true
		}
	}
	return false
}

// mirrorBatchPool publishes the process-wide batch-pool counters (the
// pool hit rate is (gets-misses)/gets).
func (e *Engine) mirrorBatchPool() {
	gets, misses := sqltypes.BatchPoolStats()
	e.m.poolGets.Set(gets)
	e.m.poolMisses.Set(misses)
}

// hedgeThreshold computes the straggler cutoff (measured from query
// start): HedgeMultiplier × the median completion time so far, floored
// at minHedgeDelay.
func hedgeThreshold(completions []time.Duration, mult float64) time.Duration {
	sorted := append([]time.Duration(nil), completions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	th := time.Duration(mult * float64(median))
	if th < minHedgeDelay {
		th = minHedgeDelay
	}
	return th
}

// awaitFreshness waits until replica divergence is within the staleness
// bound and returns the lagging replica's watermark as the query
// snapshot. Updates keep flowing the whole time; the wait polls with
// capped exponential backoff and honours the query's deadline.
func (e *Engine) awaitFreshness(ctx context.Context, procs []*NodeProcessor, bound int64) (int64, error) {
	deadline := time.Now().Add(e.opts.BarrierTimeout)
	spin := waitSpin
	for {
		lo, hi := procs[0].TxnCounter(), procs[0].TxnCounter()
		for _, p := range procs[1:] {
			w := p.TxnCounter()
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		if hi-lo <= bound {
			if hi > lo {
				e.st.staleReads.Inc()
			}
			e.st.observeStaleness(hi - lo)
			return lo, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica divergence %d exceeded staleness bound %d for %v", hi-lo, bound, e.opts.BarrierTimeout)
		}
		var err error
		if spin, err = pollWait(ctx, spin); err != nil {
			return 0, fmt.Errorf("freshness wait abandoned: %w", err)
		}
	}
}

func minWatermark(procs []*NodeProcessor) int64 {
	m := procs[0].TxnCounter()
	for _, p := range procs[1:] {
		if w := p.TxnCounter(); w < m {
			m = w
		}
	}
	return m
}

// sleepCtx sleeps d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func capDur(d, max time.Duration) time.Duration {
	if d > max {
		return max
	}
	return d
}

// pickLeastLoadedExcept returns the live node (other than the excluded
// one) with the fewest statements in flight — the hedging dispatcher's
// target choice.
func (e *Engine) pickLeastLoadedExcept(exclude *NodeProcessor) *NodeProcessor {
	var best *NodeProcessor
	for _, p := range e.procs {
		if p == exclude || p.Down() {
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
	out := make([]*NodeProcessor, 0, len(e.procs))
	for _, p := range e.procs {
		if !p.Down() {
			out = append(out, p)
		}
	}
	return out
}
