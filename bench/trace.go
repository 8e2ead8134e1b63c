package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	apuama "apuama"
)

// span is one timed interval of the traced run, in nanoseconds from the
// window's start. The harness records op and handler itself; everything
// under query is the program's own span tree, stitched in from the slow
// log. No span is added inside the program: that is ROADMAP item 5.
type span struct {
	Name     string            `json:"name"`
	Start    int64             `json:"start_ns"`
	End      int64             `json:"end_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*span           `json:"children,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// self is the span's duration minus the part of it its children cover.
// Children may overlap each other (sub-queries run concurrently) and may
// stick out of the parent; only their union inside the parent counts.
func (s *span) self() int64 {
	type seg struct{ a, b int64 }
	var iv []seg
	for _, c := range s.Children {
		a, b := c.Start, c.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			iv = append(iv, seg{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	covered, edge := int64(0), s.Start
	for _, x := range iv {
		if x.a > edge {
			edge = x.a
		}
		if x.b > edge {
			covered += x.b - edge
			edge = x.b
		}
	}
	return s.dur() - covered
}

// childSum adds up the durations of the children with the given name.
func (s *span) childSum(name string) (total int64, n int) {
	for _, c := range s.Children {
		if c.Name == name {
			total += c.dur()
			n++
		}
	}
	return total, n
}

// phaseNames are the program's spans that tile a query root end to end;
// sub-query spans run beside dispatch and gather and are not phases.
var phaseNames = []string{"plan", "barrier-wait", "dispatch", "gather", "compose", "passthrough"}

// ival is one handler call, timed on the server side of the socket.
type ival struct {
	start, end time.Time
}

// tracedHandler is what the traced run hands to proto.Serve in place of
// the cluster: the same three methods, with the call into the cluster
// timed. Reads and writes are kept apart because each has one client,
// so arrival order matches the client's send order.
type tracedHandler struct {
	c *apuama.Cluster

	mu     sync.Mutex
	reads  []ival
	writes []ival
}

func (h *tracedHandler) Query(sqlText string) (*apuama.Result, error) {
	return h.QueryContext(context.Background(), sqlText)
}

func (h *tracedHandler) QueryContext(ctx context.Context, sqlText string) (*apuama.Result, error) {
	t0 := time.Now()
	res, err := h.c.QueryContext(ctx, sqlText)
	t1 := time.Now()
	h.mu.Lock()
	h.reads = append(h.reads, ival{t0, t1})
	h.mu.Unlock()
	return res, err
}

func (h *tracedHandler) Exec(sqlText string) (int64, error) {
	t0 := time.Now()
	n, err := h.c.Exec(sqlText)
	t1 := time.Now()
	h.mu.Lock()
	h.writes = append(h.writes, ival{t0, t1})
	h.mu.Unlock()
	return n, err
}

// reset forgets the calls made so far (the warm-up's).
func (h *tracedHandler) reset() {
	h.mu.Lock()
	h.reads, h.writes = nil, nil
	h.mu.Unlock()
}

func (h *tracedHandler) snapshot() (reads, writes []ival) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ival(nil), h.reads...), append([]ival(nil), h.writes...)
}

// fromSnapshot converts a program span tree to harness spans.
func fromSnapshot(ss apuama.QueryTrace, base time.Time) *span {
	s := &span{
		Name:  ss.Name,
		Start: int64(ss.Start.Sub(base)),
		End:   int64(ss.Start.Sub(base) + ss.Duration),
	}
	for _, a := range ss.Attrs {
		if a.Key == "sql" {
			continue // the op list already has it, and it is most of the file
		}
		if s.Attrs == nil {
			s.Attrs = make(map[string]string)
		}
		s.Attrs[a.Key] = a.Value
	}
	for _, c := range ss.Children {
		s.Children = append(s.Children, fromSnapshot(c, base))
	}
	return s
}

// stitch builds one tree per traced read: op → handler → query → the
// program's phases. skip is the number of slow-log entries older than
// the window (the warm-up's). With one reader, the i-th op, the i-th
// handler call and the i-th query root belong together; each pairing is
// checked by containment.
func stitch(win *window, reads []ival, slow []apuama.QueryTrace, skip int) ([]*span, error) {
	// SlowLog is most recent first; the window's entries are the last
	// len(slow)-skip in time order.
	roots := make([]apuama.QueryTrace, 0, len(slow))
	for i := len(slow) - 1 - skip; i >= 0; i-- {
		roots = append(roots, slow[i])
	}
	n := len(win.reads)
	if len(reads) != n || len(roots) != n {
		return nil, fmt.Errorf("traced run: %d ops, %d handler calls, %d query roots", n, len(reads), len(roots))
	}
	out := make([]*span, n)
	for i, s := range win.reads {
		opSpan := &span{Name: "op", Start: int64(s.start), End: int64(s.end)}
		h := &span{Name: "handler", Start: int64(reads[i].start.Sub(win.start)), End: int64(reads[i].end.Sub(win.start))}
		q := fromSnapshot(roots[i], win.start)
		if h.Start < opSpan.Start || h.End > opSpan.End || q.Start < h.Start || q.End > h.End {
			return nil, fmt.Errorf("traced run: op %d spans do not nest (op %d..%d, handler %d..%d, query %d..%d)",
				i, opSpan.Start, opSpan.End, h.Start, h.End, q.Start, q.End)
		}
		h.Children = []*span{q}
		opSpan.Children = []*span{h}
		out[i] = opSpan
	}
	return out, nil
}

// spanMetrics reduces the stitched trees to the per-op span metrics.
// minCover is the smallest share of a query root its phases cover.
func spanMetrics(trees []*span, into map[string]float64) (minCover float64) {
	const us, ms = 1e3, 1e6
	n := float64(len(trees))
	var wire, other, busy, rootSum, phaseSum, imbalance float64
	phase := make(map[string]float64)
	imbalanced := 0
	minCover = 100
	for _, opSpan := range trees {
		h := opSpan.Children[0]
		q := h.Children[0]
		wire += float64(opSpan.self())
		var covered int64
		for _, name := range phaseNames {
			d, _ := q.childSum(name)
			phase[name] += float64(d)
			covered += d
		}
		other += float64(q.dur() - covered)
		rootSum += float64(q.dur())
		phaseSum += float64(covered)
		if c := 100 * ratio(float64(covered), float64(q.dur())); c < minCover {
			minCover = c
		}
		sub, k := q.childSum("subquery")
		busy += float64(sub)
		if k > 0 {
			var longest int64
			for _, c := range q.Children {
				if c.Name == "subquery" && c.dur() > longest {
					longest = c.dur()
				}
			}
			imbalance += ratio(float64(longest), float64(sub)/float64(k))
			imbalanced++
		}
	}
	into["proto.wire_self_ms_per_op"] = ratio(wire, n) / ms
	into["cluster.other_self_us_per_op"] = ratio(other, n) / us
	into["core.plan_us_per_op"] = ratio(phase["plan"], n) / us
	into["core.barrier_wait_us_per_op"] = ratio(phase["barrier-wait"], n) / us
	into["core.dispatch_us_per_op"] = ratio(phase["dispatch"], n) / us
	into["core.gather_ms_per_op"] = ratio(phase["gather"], n) / ms
	into["core.compose_ms_per_op"] = ratio(phase["compose"], n) / ms
	into["core.passthrough_us_per_op"] = ratio(phase["passthrough"], n) / us
	into["core.phase_cover_pct"] = 100 * ratio(phaseSum, rootSum)
	into["engine.subquery_busy_ms_per_op"] = ratio(busy, n) / ms
	into["core.subquery_max_over_mean"] = ratio(imbalance, float64(imbalanced))
	return minCover
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	Metrics  map[string]float64 `json:"metrics"`
	Writes   []*span            `json:"writes,omitempty"`
	Spans    []*span            `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+tf.Workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
