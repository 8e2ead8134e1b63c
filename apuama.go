// Package apuama is the public API of this reproduction of "Apuama:
// Combining Intra-query and Inter-query Parallelism in a Database
// Cluster" (Miranda, Lima, Valduriez, Mattoso — EDBT 2006).
//
// A Cluster bundles the full paper stack: n replicated node engines
// (PostgreSQL stand-ins), the C-JDBC-equivalent controller providing
// inter-query parallelism and replica consistency, and the Apuama Engine
// adding intra-query parallelism through Simple Virtual Partitioning.
//
// Quick start:
//
//	c, err := apuama.Open(apuama.Config{Nodes: 4})
//	...
//	err = c.LoadTPCH(0.01, 1)
//	res, err := c.Query(tpch.MustQuery(6)) // runs SVP across 4 nodes
//	n, err := c.Exec("delete from orders where o_orderkey = 7")
package apuama

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"apuama/internal/admission"
	"apuama/internal/cache"
	"apuama/internal/cluster"
	"apuama/internal/core"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/fault"
	"apuama/internal/obs"
	"apuama/internal/proto"
	"apuama/internal/tpch"
)

// Result is a materialized query result (Cols and Rows).
type Result = engine.Result

// Stats is the Apuama Engine's activity counters.
type Stats = core.Stats

// CtlStats is the controller's resilience counters (breaker trips,
// probes, auto-recoveries, retries, failovers).
type CtlStats = cluster.CtlStats

// CacheConfig sizes the versioned result cache (see internal/cache and
// the "Result caching & work sharing" section of DESIGN.md). The zero
// value disables caching entirely.
type CacheConfig = cache.Config

// CacheControl carries per-query cache directives: NoCache bypasses
// lookup and fill, MaxStaleEpochs permits serving a result up to that
// many committed writes behind the head. Attach with WithCacheControl.
type CacheControl = cache.Control

// CacheStats is the result cache's occupancy and activity counters.
type CacheStats = cache.Stats

// WithCacheControl returns a context carrying per-query cache
// directives, honoured by Cluster.QueryContext.
func WithCacheControl(ctx context.Context, ctl CacheControl) context.Context {
	return cache.WithControl(ctx, ctl)
}

// Overload-protection surface (see internal/admission and the
// "Overload & graceful degradation" section of DESIGN.md).
var (
	// ErrOverloaded matches every load-shedding rejection: the cluster
	// refused the query without doing any work. Always safe to retry
	// after the RetryAfter hint.
	ErrOverloaded = admission.ErrOverloaded
	// ErrMemoryBudget matches queries aborted because their composition
	// memory would exceed the cluster-wide budget. Not retryable as-is.
	ErrMemoryBudget = admission.ErrMemoryBudget
	// ErrSlowQuery matches queries cancelled by the slow-query killer.
	ErrSlowQuery = admission.ErrSlowQuery
)

// Retryable reports whether err is a load-shedding rejection the caller
// should retry after backing off (errors.Is(err, ErrOverloaded)); it
// holds across the wire protocol too.
func Retryable(err error) bool { return admission.Retryable(err) }

// RetryAfter extracts a shed error's back-off hint (0 when none).
func RetryAfter(err error) time.Duration { return admission.RetryAfter(err) }

// AdmissionStats is the overload-protection counters: admitted / queued
// / shed queries, memory aborts, slow-query kills, and the current
// brownout level.
type AdmissionStats = admission.Stats

// FaultInjector scripts deterministic faults for one node; attach with
// Cluster.InjectFaults. See internal/fault for the taxonomy.
type FaultInjector = fault.Injector

// FaultStats is a fault injector's activity counters.
type FaultStats = fault.Stats

// NewFaultInjector returns an inert injector seeded for deterministic
// latency jitter; configure it with its chainable methods.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// CostConfig is the simulated-hardware configuration (buffer-pool size,
// IO / CPU / network latencies). See internal/costmodel for the fields
// and DESIGN.md for the calibration rationale.
type CostConfig = costmodel.Config

// MetricsRegistry is the cluster's metrics registry: counters, gauges
// and latency histograms for every query-lifecycle phase and resilience
// event. See internal/obs for the metric vocabulary and
// Cluster.WriteMetrics for the Prometheus text export.
type MetricsRegistry = obs.Registry

// QueryTrace is one finished query's span tree (the slow-query log
// entry): query → barrier-wait → dispatch → subquery[i] → gather →
// compose, with per-span durations and node/attempt/hedge annotations.
type QueryTrace = obs.SpanSnapshot

// DefaultCost returns the calibrated cost model used by the experiment
// harness.
func DefaultCost() CostConfig { return costmodel.Default() }

// Config assembles a cluster.
type Config struct {
	// Nodes is the replica count (the paper varies 1..32). Required.
	Nodes int
	// Cost is the simulated-hardware model; zero value means
	// DefaultCost with accounting only (no real sleeps).
	Cost CostConfig
	// DisableSVP turns Apuama off: the plain C-JDBC baseline with
	// inter-query parallelism only.
	DisableSVP bool
	// UseAVP selects Adaptive Virtual Partitioning (the SmaQ strategy
	// the paper compares against in §6) instead of SVP.
	UseAVP bool
	// NoBarrier skips the replica-consistency barrier (ablation).
	NoBarrier bool
	// MaxStaleness > 0 selects the relaxed-freshness replication policy
	// the paper's conclusion proposes: OLAP queries read a consistent
	// but possibly stale snapshot (at most this many writes behind) and
	// never block updates.
	MaxStaleness int64
	// AllowSeqscan stops Apuama from disabling sequential scans around
	// SVP sub-queries (ablation of the paper's §3 optimizer override).
	AllowSeqscan bool
	// PoolSize bounds concurrent statements per node (default 8).
	PoolSize int
	// Parallelism is each node engine's intra-node morsel-driven degree:
	// sub-queries run their scan/filter/partial-aggregation fragment on
	// this many workers (the second level of parallelism, under the
	// cluster-level SVP/AVP split). 0 = auto (min(GOMAXPROCS, 8), large
	// relations only), 1 = serial.
	Parallelism int
	// AVPGranularity is the number of fine virtual partitions per
	// configured node that the cluster-level work-stealing scheduler
	// dispatches from its shared queue. 0 = auto (32 per node, floored
	// so every partition spans at least 2048 keys), 1 = the legacy
	// coarse one-range-per-node split. Ranges depend only on the
	// configured node count, so partial-result cache keys stay stable
	// when nodes die or rejoin.
	AVPGranularity int
	// Columnar enables the columnar segment store: node planners replace
	// eligible heap scans with segment scans whose per-segment zone maps
	// prune work the filter cannot match. The heap stays the write-side
	// store; results are bit-identical either way.
	Columnar bool
	// MQO enables multi-query optimization: concurrently admitted
	// sub-queries over the same relation attach to one cooperative
	// shared columnar scan, and overlapping decomposed sub-queries
	// collapse onto one execution through canonical sub-plan
	// fingerprints. Results are bit-identical with MQO on or off.
	MQO bool
	// MQOWindow is the admission batching window: the first arriving
	// query of a burst is held up to this long so overlapping queries
	// enter the engine together and land in one shared scan pass
	// (default 3ms when MQO is on; disabled under brownout).
	MQOWindow time.Duration
	// GatherBudget bounds the in-flight partial-result batches buffered
	// between each node's stream and the composer, per partition
	// (backpressure on producers that outrun composition; default 8).
	GatherBudget int
	// Policy selects the controller's read balancing policy.
	Policy cluster.Policy

	// Cache sizes the versioned result cache keyed by the cluster's
	// txn counters; the zero value disables it. See CacheConfig.
	Cache CacheConfig

	// QueryTimeout is the per-query deadline applied when the caller's
	// context has none (zero = no default deadline).
	QueryTimeout time.Duration
	// RetryLimit bounds in-place retries of transient failures per
	// sub-query / request (default 3).
	RetryLimit int
	// RetryBackoff is the initial transient-retry backoff, doubled per
	// attempt and capped at 10ms (default 100µs).
	RetryBackoff time.Duration
	// DisableHedging turns off speculative re-dispatch of straggling SVP
	// sub-queries.
	DisableHedging bool
	// HedgeMultiplier × the median sub-query completion time is the
	// straggler threshold for hedging (default 4).
	HedgeMultiplier float64
	// BreakerThreshold is the consecutive-transient-failure count that
	// trips a backend's circuit breaker (default 3).
	BreakerThreshold int
	// ProbeInterval is the base interval of the breaker's half-open
	// recovery probes (default 200µs, backing off to 20ms).
	ProbeInterval time.Duration
	// DisableAutoRecovery keeps tripped backends out of rotation until a
	// manual RecoverNode (the original C-JDBC behaviour).
	DisableAutoRecovery bool

	// MaxConcurrent > 0 enables admission control: at most this much
	// query weight executes SVP concurrently; the excess queues briefly
	// (bounded by MaxQueue and a deadline-aware wait) and is shed with a
	// typed retryable ErrOverloaded when the cluster is saturated.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue (default 4×MaxConcurrent).
	MaxQueue int
	// MemoryBudget > 0 bounds the total bytes of partial-result state
	// (gather buffers, composer tables) held by in-flight queries; a
	// query whose growth cannot fit aborts with ErrMemoryBudget.
	MemoryBudget int64
	// Brownout enables graceful degradation under sustained saturation:
	// a load controller progressively caps intra-node parallelism,
	// raises the effective cache staleness bound, and disables hedged
	// sub-queries, restoring each knob as pressure drains.
	Brownout bool
	// SlowKillMultiple > 0 enables the slow-query killer: a query
	// running longer than SlowKillMultiple × its weight-scaled class
	// budget (1s per weight unit) is cancelled with ErrSlowQuery.
	SlowKillMultiple float64

	// Trace enables per-query span tracing: every query records its
	// lifecycle as a span tree, retained in a bounded slow-query log
	// (read it with Cluster.SlowLog). Off by default; the metrics
	// registry is always on.
	Trace bool
	// SlowLogSize bounds the slow-query ring buffer (default 128).
	SlowLogSize int
	// SlowQueryThreshold keeps only queries at least this slow in the
	// log (zero records every traced query).
	SlowQueryThreshold time.Duration
}

// Cluster is a running database cluster: the single external view the
// middleware presents to applications.
type Cluster struct {
	cfg    Config
	db     *engine.Database
	nodes  []*engine.Node
	eng    *core.Engine
	ctl    *cluster.Controller
	reg    *obs.Registry
	tracer *obs.Tracer // nil unless Config.Trace

	mQueryDur *obs.Histogram
}

// Open builds a cluster with Config.Nodes replicas and the TPC-H virtual
// partitioning catalog (orders on o_orderkey, lineitem derived).
func Open(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("apuama: Nodes must be >= 1, got %d", cfg.Nodes)
	}
	cost := cfg.Cost
	if cost.PageSize == 0 {
		cost = costmodel.Default()
	}
	db := engine.NewDatabase(cost)
	nodes := make([]*engine.Node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = engine.NewNode(i, db)
	}
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if cfg.Trace {
		size := cfg.SlowLogSize
		if size <= 0 {
			size = 128
		}
		tracer = obs.NewTracer(size, cfg.SlowQueryThreshold)
	}
	opts := core.DefaultOptions()
	opts.Metrics = reg
	opts.DisableSVP = cfg.DisableSVP
	if cfg.UseAVP {
		opts.Strategy = core.AVP
	}
	opts.NoBarrier = cfg.NoBarrier
	opts.MaxStaleness = cfg.MaxStaleness
	opts.ForceIndexScan = !cfg.AllowSeqscan
	if cfg.PoolSize > 0 {
		opts.PoolSize = cfg.PoolSize
	}
	if cfg.GatherBudget > 0 {
		opts.GatherBudget = cfg.GatherBudget
	}
	opts.Parallelism = cfg.Parallelism
	opts.AVPGranularity = cfg.AVPGranularity
	opts.Columnar = cfg.Columnar
	opts.MQO = cfg.MQO
	opts.MQOWindow = cfg.MQOWindow
	opts.QueryTimeout = cfg.QueryTimeout
	opts.RetryLimit = cfg.RetryLimit
	opts.RetryBackoff = cfg.RetryBackoff
	opts.DisableHedging = cfg.DisableHedging
	opts.HedgeMultiplier = cfg.HedgeMultiplier
	opts.Cache = cfg.Cache
	opts.Admission = admission.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		MemoryBudget:  cfg.MemoryBudget,
		Brownout:      cfg.Brownout,
		KillMultiple:  cfg.SlowKillMultiple,
	}
	eng := core.New(db, nodes, core.TPCHCatalog(), opts)
	ctl := cluster.New(db, eng.Backends(), cluster.Options{
		Policy:              cfg.Policy,
		Cost:                cost,
		BreakerThreshold:    cfg.BreakerThreshold,
		RetryLimit:          cfg.RetryLimit,
		RetryBackoff:        cfg.RetryBackoff,
		ProbeInterval:       cfg.ProbeInterval,
		DisableAutoRecovery: cfg.DisableAutoRecovery,
		Metrics:             reg,
	})
	return &Cluster{
		cfg: cfg, db: db, nodes: nodes, eng: eng, ctl: ctl,
		reg: reg, tracer: tracer,
		mQueryDur: reg.Histogram(obs.MQueryDuration),
	}, nil
}

// Close stops the cluster's background loops: the controller's recovery
// probes and the admission controller's sweeper (queued admission
// waiters are shed). Queries keep working, but tripped backends are no
// longer auto-recovered and no new query is admitted.
func (c *Cluster) Close() {
	c.ctl.Close()
	c.eng.Close()
}

// LoadTPCH creates the TPC-H schema and deterministically populates it
// at the given scale factor (the paper ran SF 5 on real hardware; see
// EXPERIMENTS.md for the scaled defaults).
func (c *Cluster) LoadTPCH(sf float64, seed int64) error {
	_, err := tpch.Generator{SF: sf, Seed: seed}.Load(c.db)
	return err
}

// Query submits a read-only statement to the cluster. OLAP queries on
// virtually partitioned tables execute with intra-query parallelism
// across every node; everything else is load-balanced to one replica.
func (c *Cluster) Query(sqlText string) (*Result, error) {
	return c.QueryContext(context.Background(), sqlText)
}

// QueryContext is Query bounded by the context's deadline: a wedged or
// straggling cluster abandons the request once ctx is done. When
// tracing is on (Config.Trace) the query records its lifecycle span
// tree into the slow-query log; the end-to-end latency histogram is
// always observed.
func (c *Cluster) QueryContext(ctx context.Context, sqlText string) (*Result, error) {
	sp := c.tracer.StartQuery(sqlText)
	ctx = obs.WithSpan(ctx, sp)
	if tp := obs.TransportFrom(ctx); tp != "" {
		sp.Annotate("wire", tp) // which wire protocol delivered the query
	}
	t0 := time.Now()
	res, err := c.ctl.QueryContext(ctx, sqlText)
	c.mQueryDur.Observe(time.Since(t0))
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.End()
	return res, err
}

// Exec submits a write (totally ordered and broadcast to all replicas),
// a DDL statement, or a SET.
func (c *Cluster) Exec(sqlText string) (int64, error) {
	return c.ctl.Exec(sqlText)
}

// ExecContext is Exec bounded by the context's deadline.
func (c *Cluster) ExecContext(ctx context.Context, sqlText string) (int64, error) {
	return c.ctl.ExecContext(ctx, sqlText)
}

// Stats returns the Apuama Engine's activity counters.
func (c *Cluster) Stats() Stats { return c.eng.Snapshot() }

// ControllerStats returns the controller's resilience counters.
func (c *Cluster) ControllerStats() CtlStats { return c.ctl.Snapshot() }

// CacheStats returns the result cache's counters (the zero value when
// caching is disabled).
func (c *Cluster) CacheStats() CacheStats { return c.eng.Cache().Stats() }

// AdmissionStats returns the overload-protection counters (the zero
// value when admission control is disabled).
func (c *Cluster) AdmissionStats() AdmissionStats { return c.eng.Admission().Snapshot() }

// InjectFaults attaches a fault injector to node i (nil detaches). The
// injector scripts crashes, stragglers, flaky errors and delayed
// recoveries deterministically (see internal/fault); its activity is
// mirrored into the metrics registry labeled by node and fault kind.
func (c *Cluster) InjectFaults(i int, inj *FaultInjector) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("no node %d", i)
	}
	if inj != nil {
		inj.PublishTo(c.reg, strconv.Itoa(i))
	}
	c.eng.Procs()[i].InjectFaults(inj)
	return nil
}

// AttachWireServer mirrors a wire server's transport counters
// (frames, bytes, streams, cancels, negotiated version) into this
// cluster's Stats snapshot. The daemon calls it after starting a
// proto.Server over the cluster; passing nil detaches.
func (c *Cluster) AttachWireServer(s *proto.Server) {
	if s == nil {
		c.eng.SetWireStats(func() core.WireStats { return core.WireStats{} })
		return
	}
	c.eng.SetWireStats(func() core.WireStats {
		w := s.Stats()
		return core.WireStats{
			Frames:       w.FramesIn + w.FramesOut,
			Bytes:        w.BytesIn + w.BytesOut,
			Streams:      w.Streams,
			Cancels:      w.Cancels,
			ProtoVersion: w.NegotiatedVersion,
		}
	})
}

// Metrics returns the cluster's metrics registry (always live; tracing
// knobs do not affect it).
func (c *Cluster) Metrics() *MetricsRegistry { return c.reg }

// WriteMetrics writes every registered metric in Prometheus text
// exposition format (histograms appear as summaries with p50/p95/p99
// quantiles).
func (c *Cluster) WriteMetrics(w io.Writer) error { return c.reg.WritePrometheus(w) }

// SlowLog returns the retained query traces, most recent first. Nil
// unless Config.Trace is set.
func (c *Cluster) SlowLog() []QueryTrace { return c.tracer.SlowLog() }

// NumNodes returns the replica count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// ResetMeters zeroes every node's cost meter and buffer-pool statistics
// (benchmark warm-up hygiene; cache contents are preserved).
func (c *Cluster) ResetMeters() {
	for _, nd := range c.nodes {
		nd.Meter().Reset()
		nd.Pool().ResetStats()
	}
	c.ctl.NetMeter().Reset()
	c.eng.NetMeter().Reset()
}

// NodeIOStats reports each node's buffer-pool hits and misses.
func (c *Cluster) NodeIOStats() (hits, misses []int64) {
	for _, nd := range c.nodes {
		h, m := nd.Pool().Stats()
		hits = append(hits, h)
		misses = append(misses, m)
	}
	return hits, misses
}

// SizeReport returns heap pages per table.
func (c *Cluster) SizeReport() map[string]int { return tpch.SizeReport(c.db) }

// KillNode simulates a crash of node i: its requests fail until
// RecoverNode, and the controller routes around it.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("no node %d", i)
	}
	c.eng.Procs()[i].Kill()
	return nil
}

// RecoverNode revives a crashed node and replays every write it missed
// from the controller's log, then puts it back into rotation — the
// recovery protocol a production deployment of the paper's middleware
// needs and C-JDBC provides via its recovery log.
func (c *Cluster) RecoverNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("no node %d", i)
	}
	c.eng.Procs()[i].Revive()
	return c.ctl.Recover(i)
}

// Vacuum reclaims row versions no replica can still see (deleted at or
// before the lagging replica's watermark). The cluster must be quiescent
// — no concurrent queries or writes — while it runs, like VACUUM FULL.
// Returns the number of row versions reclaimed.
func (c *Cluster) Vacuum() int64 {
	horizon := c.nodes[0].Watermark()
	for _, nd := range c.nodes[1:] {
		if w := nd.Watermark(); w < horizon {
			horizon = w
		}
	}
	return c.db.Vacuum(horizon)
}

// Internals exposes the underlying layers for experiments and advanced
// embedding (the types live in internal packages; use the aliases).
func (c *Cluster) Internals() (*engine.Database, []*engine.Node, *core.Engine, *cluster.Controller) {
	return c.db, c.nodes, c.eng, c.ctl
}
