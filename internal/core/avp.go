package core

import "time"

// Adaptive Virtual Partitioning (AVP) is the intra-query strategy of
// SmaQ (Lima, Mattoso, Valduriez — SBBD 2004), which the paper's §6
// compares Apuama's SVP against: instead of one range per node, each
// node processes its range as a sequence of small sub-ranges whose size
// adapts to observed throughput — start small, grow while the per-key
// processing rate improves, shrink when it degrades. AVP tolerates data
// skew and enables dynamic load balancing, but the paper argues its many
// small queries increase concurrency and "induce a bad memory cache
// use"; implementing both strategies lets the ablation benches test that
// claim directly.
// Both strategies now run through the fine-grained scheduler in
// engine.go/scheduler.go: SVP keeps fixed-size partitions, AVP adds the
// adaptive claim-run sizing below.

// avpState tracks the adaptive sizing loop for one node.
type avpState struct {
	size     int64   // current sub-range width in keys
	lastRate float64 // keys processed per second in the previous chunk
	grew     bool    // whether the last adjustment was growth
}

// avpInitialFraction starts chunks at this fraction of the node's range.
const avpInitialFraction = 64

// Fine-partition sizing (Options.AVPGranularity resolution).
const (
	// defaultAVPFanout is the auto partitions-per-node target.
	defaultAVPFanout = 32
	// avpMinPartKeys floors the auto-sized partition width in keys: the
	// auto heuristic never cuts the domain finer than this, so small
	// (test-sized) domains keep the classic coarse split.
	avpMinPartKeys = 2048
	// maxClaimRun caps how many adjacent home partitions one AVP claim
	// run may take back-to-back, whatever the adaptive size says.
	maxClaimRun = 64
)

// fineParts resolves the number of fine virtual partitions for a query
// over a key domain of span keys. It depends only on the CONFIGURED
// node count (len(e.procs)), never on liveness, so the VPA ranges — and
// with them the partial-result cache keys — are stable while nodes
// crash and rejoin.
func (e *Engine) fineParts(span int64) int {
	n := len(e.procs)
	if n < 1 {
		n = 1
	}
	if span < 1 {
		span = 1
	}
	g := e.opts.AVPGranularity
	var m int64
	switch {
	case g == 1:
		return n
	case g > 1:
		m = int64(g) * int64(n)
	case e.opts.Strategy == AVP:
		m = int64(defaultAVPFanout) * int64(n)
	default:
		// Auto SVP: fine-grained only when every partition still spans
		// avpMinPartKeys keys and each node gets at least two.
		m = int64(defaultAVPFanout) * int64(n)
		if byKeys := span / avpMinPartKeys; byKeys < m {
			m = byKeys
		}
		if n == 1 || m < int64(2*n) {
			return n
		}
	}
	if m > span {
		m = span
	}
	if m < int64(n) {
		m = int64(n)
	}
	return int(m)
}

// adapt implements the AVP sizing rule: double the chunk while the
// processing rate (keys/second) does not degrade, halve it when it does.
func (st *avpState) adapt(keys int64, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	rate := float64(keys) / secs
	switch {
	case st.lastRate == 0 || rate >= st.lastRate*0.9:
		st.size *= 2
		st.grew = true
	case st.grew:
		// Growth hurt: back off and hold.
		st.size = max(st.size/2, 1)
		st.grew = false
	default:
		st.size = max(st.size/2, 1)
	}
	st.lastRate = rate
}
