package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a query's life. The root span is the query
// itself; its children are the lifecycle phases (plan, barrier-wait,
// dispatch, gather, compose or passthrough, reply), opened by Phase, and
// the concurrent subquery spans, opened by Child. Spans are annotated
// while running and closed by End. All methods are safe on a nil
// receiver, so tracing-off code paths cost one pointer check.
//
// Concurrency: a span's children are appended under the span's own
// mutex, so sub-query workers can open sibling spans from their
// goroutines while the gather loop annotates the parent.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span

	// root bookkeeping (set on the query span only)
	tracer    *Tracer
	phaseEnd  time.Time // where the last ended phase ended (zero: none yet)
	lastPhase *Span     // the phase opened last

	phaseOf *Span // the query span this phase tiles (nil: not a phase)
}

// Attr is one key=value annotation on a span (node id, attempt number,
// stolen flag, fallback reason, error).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Child opens a sub-span. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Phase opens the next lifecycle phase of a query span: a child that
// starts where the previous phase ended, or where the query started for
// the first one. The phases thus tile the query with no gap, and the time
// between two stages (the controller choosing a replica, a goroutine
// preempted or a GC pause on the way) is charged to the phase it delays
// instead of to no phase. Returns nil when s is nil.
func (s *Span) Phase(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	start := s.phaseEnd
	if start.IsZero() {
		start = s.start
	}
	c := &Span{name: name, start: start, phaseOf: s}
	s.children = append(s.children, c)
	s.lastPhase = c
	s.mu.Unlock()
	return c
}

// Annotate attaches a key=value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span, fixing its duration. Ending a span twice keeps
// the first duration. Ending a query span ends its last phase at the same
// instant if that is still open, and hands the query to its tracer's
// slow-query log.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

func (s *Span) endAt(now time.Time) {
	s.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
	tr, q, last := s.tracer, s.phaseOf, s.lastPhase
	s.mu.Unlock()
	if first && q != nil {
		q.mu.Lock()
		q.phaseEnd = now
		q.mu.Unlock()
	}
	if first && last != nil {
		last.endAt(now)
	}
	if tr != nil {
		tr.record(s)
	}
}

// Duration returns the span's length (elapsed-so-far if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanSnapshot is the immutable JSON form of a finished span tree.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Attr returns the value of the named annotation ("" if absent).
func (ss SpanSnapshot) Attr(key string) string {
	for _, a := range ss.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// ChildNamed returns the first child with the given name (found=false
// if absent).
func (ss SpanSnapshot) ChildNamed(name string) (SpanSnapshot, bool) {
	for _, c := range ss.Children {
		if c.Name == name {
			return c, true
		}
	}
	return SpanSnapshot{}, false
}

// Snapshot deep-copies the span tree.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	ss := SpanSnapshot{
		Name:     s.name,
		Start:    s.start,
		Duration: s.dur,
		Attrs:    append([]Attr(nil), s.attrs...),
	}
	if !s.ended {
		ss.Duration = time.Since(s.start)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		ss.Children = append(ss.Children, c.Snapshot())
	}
	return ss
}

// Tracer mints root query spans and keeps a bounded ring of finished
// traces at least Threshold long — the slow-query log. A nil Tracer is
// inert: StartQuery returns a nil span and every downstream span call
// no-ops, which is how tracing stays opt-in with unconditional
// instrumentation code.
type Tracer struct {
	threshold time.Duration

	mu   sync.Mutex
	ring []SpanSnapshot
	next int
	full bool
}

// NewTracer builds a tracer whose slow log keeps the last `size`
// finished queries with duration >= threshold (threshold 0 records
// every query).
func NewTracer(size int, threshold time.Duration) *Tracer {
	if size < 1 {
		size = 128
	}
	return &Tracer{ring: make([]SpanSnapshot, size), threshold: threshold}
}

// StartQuery opens a root span for one query. label is typically the
// (possibly truncated) SQL text.
func (t *Tracer) StartQuery(label string) *Span {
	if t == nil {
		return nil
	}
	return &Span{name: "query", start: time.Now(), tracer: t,
		attrs: []Attr{{Key: "sql", Value: label}}}
}

// record files a finished root span into the ring if it is slow enough.
func (t *Tracer) record(root *Span) {
	if t == nil {
		return
	}
	if root.Duration() < t.threshold {
		return
	}
	ss := root.Snapshot()
	t.mu.Lock()
	t.ring[t.next] = ss
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// SlowLog returns the retained traces, most recent first.
func (t *Tracer) SlowLog() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []SpanSnapshot
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[i])
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// spanKey is the context key for the current query span.
type spanKey struct{}

// WithSpan attaches a span to the context for downstream layers.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the current span (nil when tracing is off).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
