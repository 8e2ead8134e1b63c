package core

import (
	"sync/atomic"
	"time"

	"apuama/internal/obs"
)

// statCounter pairs one public Stats field with its mirrored registry
// counter: a single Add updates both, so the engine's own counters and
// the /metrics endpoint can never disagree. The mirror is nil when no
// registry is configured (obs.Counter is nil-safe).
type statCounter struct {
	v atomic.Int64
	m *obs.Counter
}

func (c *statCounter) Add(n int64) {
	c.v.Add(n)
	c.m.Add(n)
}

func (c *statCounter) Inc() { c.Add(1) }

func (c *statCounter) Load() int64 { return c.v.Load() }

// engineStats is the engine's internal counter block. Every field is
// written with atomic operations (no shared mutex on the query hot
// path) and read with atomic loads by Snapshot, so a Snapshot taken
// concurrently with running queries is race-free by construction — the
// regression class PR 2 closes. Only the fallback-reason map, which is
// off the hot path, takes a lock.
type engineStats struct {
	svpQueries      statCounter
	passThrough     statCounter
	subQueries      statCounter
	blockedWrites   statCounter
	composedRows    statCounter
	staleReads      statCounter
	subQueryRetries statCounter
	backoffRetries  statCounter
	deadlineAborts  statCounter

	streamedBatches    statCounter
	streamedRows       statCounter
	limitShortCircuits statCounter

	avpPartitions statCounter
	avpSteals     statCounter
	avpRequeues   statCounter

	cacheHits          statCounter
	cacheMisses        statCounter
	cacheStaleHits     statCounter
	cacheShared        statCounter
	cachePartialHits   statCounter
	cachePartialMisses statCounter

	shapes         statCounter
	shapeEvictions statCounter

	maxStaleness atomic.Int64
	barrierWait  atomic.Int64 // nanoseconds

	// fallbacks is read-only after wire: reason class -> its counter,
	// mirrored as apuama_svp_fallback_total{reason=...}.
	fallbacks map[string]*statCounter
}

// wire connects each counter's mirror to the registry (nil reg leaves
// the mirrors nil, i.e. engine-local counting only).
func (st *engineStats) wire(reg *obs.Registry) {
	st.fallbacks = make(map[string]*statCounter, len(reasonClasses))
	for _, class := range reasonClasses {
		st.fallbacks[class] = &statCounter{m: reg.Counter(obs.Labeled(obs.MFallbacks, "reason", class))}
	}
	st.svpQueries.m = reg.Counter(obs.MSVPQueries)
	st.passThrough.m = reg.Counter(obs.MPassThrough)
	st.subQueries.m = reg.Counter(obs.MSubqueries)
	st.blockedWrites.m = reg.Counter(obs.MBlockedWrites)
	st.composedRows.m = reg.Counter(obs.MComposedRows)
	st.staleReads.m = reg.Counter(obs.MStaleReads)
	st.subQueryRetries.m = reg.Counter(obs.MSubqueryRetries)
	st.backoffRetries.m = reg.Counter(obs.MBackoffRetries)
	st.deadlineAborts.m = reg.Counter(obs.MDeadlineAborts)
	st.streamedBatches.m = reg.Counter(obs.MGatherBatches)
	st.streamedRows.m = reg.Counter(obs.MGatherRows)
	st.limitShortCircuits.m = reg.Counter(obs.MLimitShortCircuit)
	st.avpPartitions.m = reg.Counter(obs.MAVPPartitions)
	st.avpSteals.m = reg.Counter(obs.MAVPSteals)
	st.avpRequeues.m = reg.Counter(obs.MAVPRequeues)
	st.cacheHits.m = reg.Counter(obs.MCacheHits)
	st.cacheMisses.m = reg.Counter(obs.MCacheMisses)
	st.cacheStaleHits.m = reg.Counter(obs.MCacheStaleHits)
	st.cacheShared.m = reg.Counter(obs.MCacheShared)
	st.cachePartialHits.m = reg.Counter(obs.MCachePartialHits)
	st.cachePartialMisses.m = reg.Counter(obs.MCachePartialMisses)
	st.shapes.m = reg.Counter(obs.MShapes)
	st.shapeEvictions.m = reg.Counter(obs.MShapeEvictions)
}

// observeStaleness records a freshness-mode read d writes behind the
// head, keeping the running maximum with a CAS loop.
func (st *engineStats) observeStaleness(d int64) {
	for {
		cur := st.maxStaleness.Load()
		if d <= cur || st.maxStaleness.CompareAndSwap(cur, d) {
			return
		}
	}
}

// snapshot assembles the public Stats view from atomic loads.
func (st *engineStats) snapshot() Stats {
	s := Stats{
		SVPQueries:           st.svpQueries.Load(),
		PassThrough:          st.passThrough.Load(),
		SubQueries:           st.subQueries.Load(),
		BlockedWrites:        st.blockedWrites.Load(),
		ComposedRows:         st.composedRows.Load(),
		StaleReads:           st.staleReads.Load(),
		MaxObservedStaleness: st.maxStaleness.Load(),
		SubQueryRetries:      st.subQueryRetries.Load(),
		BackoffRetries:       st.backoffRetries.Load(),
		DeadlineAborts:       st.deadlineAborts.Load(),
		StreamedBatches:      st.streamedBatches.Load(),
		StreamedRows:         st.streamedRows.Load(),
		LimitShortCircuits:   st.limitShortCircuits.Load(),
		AVPPartitions:        st.avpPartitions.Load(),
		AVPSteals:            st.avpSteals.Load(),
		AVPRequeues:          st.avpRequeues.Load(),
		CacheHits:            st.cacheHits.Load(),
		CacheMisses:          st.cacheMisses.Load(),
		CacheStaleHits:       st.cacheStaleHits.Load(),
		CacheShared:          st.cacheShared.Load(),
		CachePartialHits:     st.cachePartialHits.Load(),
		CachePartialMisses:   st.cachePartialMisses.Load(),
		Shapes:               st.shapes.Load(),
		ShapeEvictions:       st.shapeEvictions.Load(),
		BarrierWaits:         time.Duration(st.barrierWait.Load()),
		FallbackReasons:      map[string]int64{},
	}
	for class, c := range st.fallbacks {
		if v := c.Load(); v > 0 {
			s.FallbackReasons[class] = v
		}
	}
	return s
}

// engineMetrics holds the engine's pre-resolved histogram handles (all
// nil, hence no-ops, when no registry is configured).
type engineMetrics struct {
	reg         *obs.Registry
	barrierWait *obs.Histogram
	dispatch    *obs.Histogram
	gather      *obs.Histogram
	firstBatch  *obs.Histogram
	compose     *obs.Histogram
	subqueryDur *obs.Histogram
	poolGets    *obs.Gauge
	poolMisses  *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		reg:         reg,
		barrierWait: reg.Histogram(obs.MBarrierWait),
		dispatch:    reg.Histogram(obs.MDispatch),
		gather:      reg.Histogram(obs.MGather),
		firstBatch:  reg.Histogram(obs.MGatherFirstBatch),
		compose:     reg.Histogram(obs.MCompose),
		subqueryDur: reg.Histogram(obs.MSubqueryDuration),
		poolGets:    reg.Gauge(obs.MBatchPoolGets),
		poolMisses:  reg.Gauge(obs.MBatchPoolMisses),
	}
}
