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

// Result is a materialized query result (Cols and Rows). An SVP query's
// rows may live in pooled memory: calling Release once done with them
// hands it back (optional; an unreleased result is garbage collected).
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
// compose, with per-span durations and node/attempt/steal annotations.
type QueryTrace = obs.SpanSnapshot

// DefaultCost returns the calibrated cost model used by the experiment
// harness.
func DefaultCost() CostConfig { return costmodel.Default() }

// EngineOptions configures the Apuama Engine: the intra-query strategy,
// the paper's ablation switches, the optional modes (partition
// granularity, columnar, MQO), the result cache, overload
// protection and the default query deadline. The zero value is the
// paper's configuration. See internal/core for the fields.
type EngineOptions = core.Options

// Strategy selects the intra-query parallelism technique
// (EngineOptions.Strategy).
type Strategy = core.Strategy

// The intra-query strategies: the paper's Simple Virtual Partitioning
// and the Adaptive Virtual Partitioning (SmaQ) it compares against in §6.
const (
	SVP = core.SVP
	AVP = core.AVP
)

// AdmissionConfig configures overload protection
// (EngineOptions.Admission; see internal/admission). The zero value
// admits every query.
type AdmissionConfig = admission.Config

// Config assembles a cluster.
type Config struct {
	// Nodes is the replica count (the paper varies 1..32). Required.
	Nodes int
	// Cost is the simulated-hardware model; zero value means
	// DefaultCost with accounting only (no real sleeps).
	Cost CostConfig
	// Engine configures the Apuama Engine; the zero value is the paper's
	// configuration (SVP on, sequential scans off around sub-queries,
	// the consistency barrier on).
	Engine EngineOptions

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
	eng := core.New(db, nodes, core.TPCHCatalog(), cfg.Engine, reg)
	ctl := cluster.New(db, eng.Backends(), reg)
	return &Cluster{
		db: db, nodes: nodes, eng: eng, ctl: ctl,
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
	// The reply phase, the way back from the last stage to here, ends
	// with the query.
	sp.Phase("reply")
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
