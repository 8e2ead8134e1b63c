// Package costmodel simulates the hardware the paper ran on: per-node
// disks, limited RAM (expressed as buffer-pool capacity elsewhere) and a
// gigabit interconnect. Latencies are charged to a Meter; a Meter either
// sleeps (so that wall-clock measurements and queueing behave like the
// real cluster, just scaled down) or merely accounts virtual time (fast
// mode for unit tests).
//
// The defaults are scaled roughly 10x faster than the paper's 2005-era
// hardware so the full figure suite completes in minutes on a laptop; the
// *ratios* between IO, CPU and network costs — which determine every shape
// in the evaluation — follow PostgreSQL's classic planner constants
// (seq_page_cost : cpu_tuple_cost ≈ 100 : 1).
package costmodel

import (
	"sync/atomic"
	"time"
)

// Config holds the latency constants for one simulated cluster.
type Config struct {
	// PageSize is the simulated disk page size in bytes.
	PageSize int
	// CachePages is each node's buffer-pool capacity in pages (the
	// simulated RAM available for caching; the paper's nodes had 2 GB).
	CachePages int
	// SeqPageRead is charged per page read that misses the buffer pool
	// during a sequential scan.
	SeqPageRead time.Duration
	// RandPageRead is charged per page miss during index-driven access
	// (random IO was ~4x sequential on 2005 disks).
	RandPageRead time.Duration
	// CPUTuple is charged per tuple processed by a scan.
	CPUTuple time.Duration
	// CPUOperator is charged per expression/aggregate evaluated per
	// tuple; it is what makes Q1-style queries CPU-bound as in the paper.
	CPUOperator time.Duration
	// NetMessage is charged per middleware<->node request (one RTT).
	NetMessage time.Duration
	// NetPerRow is charged per result row shipped back to the middleware.
	NetPerRow time.Duration
	// WriteFanout is charged serially at the controller per replica per
	// write broadcast: the marginal cost of one more copy of an update.
	// It is what makes "the time needed to broadcast updates over all
	// nodes increase according to the number of nodes" (paper §3) and
	// drives the Fig. 4 degradation at 16-32 nodes.
	WriteFanout time.Duration
	// RealSleep selects sleeping (true: wall-clock experiments) versus
	// pure accounting (false: fast tests).
	RealSleep bool
}

// Default returns the calibrated configuration used by the experiment
// harness. See EXPERIMENTS.md for the calibration rationale.
func Default() Config {
	return Config{
		PageSize:     8192,
		CachePages:   1024,
		SeqPageRead:  40 * time.Microsecond,
		RandPageRead: 120 * time.Microsecond,
		CPUTuple:     200 * time.Nanosecond,
		CPUOperator:  150 * time.Nanosecond,
		NetMessage:   200 * time.Microsecond,
		NetPerRow:    2 * time.Microsecond,
		WriteFanout:  50 * time.Microsecond,
		RealSleep:    false,
	}
}

// TestConfig returns a tiny, non-sleeping configuration for unit tests.
func TestConfig() Config {
	c := Default()
	c.CachePages = 64
	c.RealSleep = false
	return c
}

// Meter accumulates simulated latency. One Meter exists per node (charged
// by its buffer pool and executor) plus one for the middleware network.
// Charges accumulate in a pending bucket; Flush either sleeps the pending
// amount (RealSleep) or folds it into the virtual total. Accumulating and
// flushing in batches keeps sleep syscalls coarse enough to be accurate.
type Meter struct {
	cfg     Config
	pending atomic.Int64 // nanoseconds not yet slept
	virtual atomic.Int64 // nanoseconds accounted (total, including slept)
}

// NewMeter returns a meter for the given configuration.
func NewMeter(cfg Config) *Meter { return &Meter{cfg: cfg} }

// Config returns the meter's configuration.
func (m *Meter) Config() Config { return m.cfg }

// Charge adds d of simulated latency.
func (m *Meter) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	m.virtual.Add(int64(d))
	if m.cfg.RealSleep {
		m.pending.Add(int64(d))
	}
}

// flushThreshold keeps individual sleeps long enough for the OS timer to
// honour them accurately (time.Sleep overshoots by tens of microseconds
// per call; batching keeps that overhead small relative to the sleep).
const flushThreshold = int64(2 * time.Millisecond)

// MaybeFlush sleeps accumulated latency once it exceeds the threshold.
// Call it from executor loops (it is cheap when below threshold).
func (m *Meter) MaybeFlush() {
	if m.cfg.RealSleep && m.pending.Load() >= flushThreshold {
		m.sleepPending()
	}
}

// Flush sleeps whatever latency is pending.
func (m *Meter) Flush() {
	if m.cfg.RealSleep && m.pending.Load() > 0 {
		m.sleepPending()
	}
}

// sleepPending sleeps the outstanding balance and debits the time
// *actually* slept, so systematic time.Sleep overshoot self-corrects: an
// oversleep drives the balance negative and later charges are absorbed
// until wall-clock and simulated time realign.
func (m *Meter) sleepPending() {
	p := m.pending.Load()
	if p <= 0 {
		return
	}
	start := time.Now()
	time.Sleep(time.Duration(p))
	m.pending.Add(-int64(time.Since(start)))
}

// Virtual returns the total simulated latency charged so far.
func (m *Meter) Virtual() time.Duration { return time.Duration(m.virtual.Load()) }

// Reset zeroes the accounted totals (pending sleeps are dropped too).
func (m *Meter) Reset() {
	m.virtual.Store(0)
	m.pending.Store(0)
}
