// Package obs is the cluster's observability layer: a lock-cheap
// metrics registry (counters, gauges, bounded histograms) and a
// per-query span tracer that records the full SVP lifecycle as a tree
// (query → barrier-wait → dispatch → subquery[i] → gather → compose).
//
// The registry follows the instrumentation style of distributed OLAP
// engines that attribute latency per pipeline stage: every phase of a
// query's life gets its own duration histogram, and every resilience
// event (retry, requeue, breaker trip, fallback) its own counter, so the
// paper's evaluation questions — per-node sub-query skew, composition
// overhead, speedup — can be answered from a running cluster instead of
// bespoke benchmark plumbing.
//
// Hot-path cost: counters and gauges are single atomic adds; histogram
// observation is two atomic adds (bucket + sum). The only lock is the
// registry's name→metric map, taken once per metric handle — callers
// resolve handles at construction time and never touch the map again.
// A nil handle is a no-op, so instrumented code needs no "is
// observability on?" branches.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (observability disabled).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-or-adjust metric. Safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential duration buckets: bucket i
// holds observations in (2^(i-1), 2^i] microseconds, so the range spans
// 1µs .. ~34s with the last bucket absorbing everything slower.
const histBuckets = 26

// Histogram is a bounded exponential-bucket duration histogram. It is
// write-optimized: Observe is two atomic adds with no locking, and a
// Snapshot derives its total count from the bucket counts, so the
// invariant "count == sum of bucket counts" holds by construction even
// under concurrent writers (the sum-of-values field may trail the
// buckets by in-flight observations, which only skews the reported mean
// by those observations, never the quantiles). Safe on a nil receiver.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// bucketFor maps a duration to its bucket index: the smallest i with
// us <= 2^i (ceil(log2), so an observation never lands in a bucket
// whose upper bound it exceeds).
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1))
	if i > histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i (the last
// bucket is unbounded and reports its lower bound).
func BucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets [histBuckets]int64
}

// Snapshot captures the histogram. Count is computed from the bucket
// counts so it is always consistent with them.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	// Read sum first: a concurrent Observe bumps the bucket after the
	// sum only when we read between its two adds, and reading sum first
	// keeps Sum <= what the buckets account for plus in-flight noise.
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket upper
// bounds. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Mean returns the average observed duration.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Registry holds named metrics. Metric handles are resolved with
// get-or-create lookups (the only locked path) and then used lock-free.
// All lookup methods are safe on a nil receiver and return nil handles,
// which are themselves safe no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. The name
// may carry a Prometheus label suffix built with Labeled.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Labeled builds a metric name with a Prometheus label set attached:
// Labeled("x_total", "reason", "key-domain") → `x_total{reason="key-domain"}`.
// Key/value pairs must alternate.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// baseName strips a label suffix from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// CounterValue reads a counter without creating it (0 if absent).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// HistogramSnapshot reads a histogram without creating it.
func (r *Registry) HistogramSnapshot(name string) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	return h.Snapshot()
}

// MetricNames lists every registered metric name (labels stripped,
// deduplicated, sorted) — tests assert endpoint coverage with this.
func (r *Registry) MetricNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := map[string]bool{}
	for n := range r.counters {
		set[baseName(n)] = true
	}
	for n := range r.gauges {
		set[baseName(n)] = true
	}
	for n := range r.hists {
		set[baseName(n)] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Histograms export as summaries (p50/p95/p99 quantiles plus
// _sum in seconds and _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	typed := map[string]bool{}
	writeType := func(name, kind string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, name := range sortedKeys(counters) {
		writeType(name, "counter")
		fmt.Fprintf(w, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		writeType(name, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, gauges[name].Value())
	}
	for _, name := range sortedKeys(hists) {
		writeType(name, "summary")
		s := hists[name].Snapshot()
		base, labels := splitLabels(name)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "%s{%squantile=\"%g\"} %g\n",
				base, labels, q, s.Quantile(q).Seconds())
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labelSuffix(name), s.Sum.Seconds())
		fmt.Fprintf(w, "%s_count%s %d\n", base, labelSuffix(name), s.Count)
	}
	return nil
}

// splitLabels splits `name{a="b"}` into ("name", `a="b",`) so extra
// labels can be appended; a bare name yields ("name", "").
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// labelSuffix returns the label block of a name ("{...}") or "".
func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
