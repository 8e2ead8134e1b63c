package apuama

import (
	"strings"
	"testing"
	"time"

	"apuama/internal/obs"
	"apuama/internal/tpch"
)

// TestMetricsCoverage drives the full stack once and asserts the
// registry exposes the whole observability vocabulary: at least 12
// distinct metric names, spanning the query lifecycle (barrier,
// dispatch, per-subquery, compose) and the resilience layer (retry,
// breaker), and that the Prometheus exposition carries them.
func TestMetricsCoverage(t *testing.T) {
	c := openTest(t, Config{Nodes: 4})
	defer c.Close()
	for _, qn := range tpch.QueryNumbers {
		if _, err := c.Query(tpch.MustQuery(qn)); err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
	}
	if _, err := c.Exec("delete from orders where o_orderkey = 1"); err != nil {
		t.Fatal(err)
	}

	names := c.Metrics().MetricNames()
	if len(names) < 12 {
		t.Errorf("registry has %d metric names, want >= 12: %v", len(names), names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		obs.MQueryDuration, obs.MBarrierWait, obs.MDispatch, obs.MGather,
		obs.MCompose, obs.MSubqueryDuration, obs.MSVPQueries, obs.MSubqueries,
		obs.MSubqueryRetries, obs.MBreakerTrips, obs.MPoolWait,
		obs.MNodeInflight, obs.MComposedRows,
	} {
		if !have[want] {
			t.Errorf("metric %q not registered; have %v", want, names)
		}
	}

	// Lifecycle histograms actually observed the workload.
	for _, h := range []string{obs.MQueryDuration, obs.MBarrierWait, obs.MDispatch, obs.MGather, obs.MCompose} {
		if s := c.Metrics().HistogramSnapshot(h); s.Count < int64(len(tpch.QueryNumbers)) {
			t.Errorf("%s count = %d, want >= %d", h, s.Count, len(tpch.QueryNumbers))
		}
	}
	if got := c.Metrics().CounterValue(obs.MSVPQueries); got != int64(len(tpch.QueryNumbers)) {
		t.Errorf("%s = %d, want %d", obs.MSVPQueries, got, len(tpch.QueryNumbers))
	}

	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{obs.MSVPQueries, obs.MBarrierWait, obs.MCompose} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTracingThroughFacade asserts the opt-in span tracer records a
// full lifecycle tree per query and that the lifecycle phases, from the
// plan to the reply to the caller, tile the root span (their durations
// sum to within 10% of the total — the apuama-bench --trace contract).
func TestTracingThroughFacade(t *testing.T) {
	c := openTest(t, Config{Nodes: 4, Trace: true})
	defer c.Close()
	for _, qn := range tpch.QueryNumbers {
		if _, err := c.Query(tpch.MustQuery(qn)); err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
	}
	log := c.SlowLog()
	if len(log) != len(tpch.QueryNumbers) {
		t.Fatalf("slow log has %d traces, want %d", len(log), len(tpch.QueryNumbers))
	}
	for _, tr := range log {
		if tr.Name != "query" || tr.Attr("sql") == "" {
			t.Fatalf("malformed root span: %+v", tr)
		}
		var explained time.Duration
		var prev obs.SpanSnapshot
		for i, ph := range []string{"plan", "barrier-wait", "dispatch", "gather", "compose", "reply"} {
			child, ok := tr.ChildNamed(ph)
			if !ok {
				t.Fatalf("trace %q missing phase %q", tr.Attr("sql")[:40], ph)
			}
			explained += child.Duration
			// The phases tile the query in stage order: each opens no
			// earlier than the previous one ended.
			if i > 0 && child.Start.Before(prev.Start.Add(prev.Duration)) {
				t.Errorf("trace %q: phase %q starts before %q ended", tr.Attr("sql")[:40], ph, prev.Name)
			}
			prev = child
		}
		subq := 0
		for _, child := range tr.Children {
			if child.Name == "subquery" {
				subq++
				if child.Attr("node") == "" || child.Attr("partition") == "" {
					t.Errorf("subquery span missing node/partition annotations: %+v", child.Attrs)
				}
			}
		}
		if subq != 4 {
			t.Errorf("trace %q has %d subquery spans, want 4", tr.Attr("sql")[:40], subq)
		}
		if explained < tr.Duration*9/10 {
			t.Errorf("trace %q: phases explain %v of %v (< 90%%)",
				tr.Attr("sql")[:40], explained, tr.Duration)
		}
	}
}

// TestTracePhasesAppearOnce: under one query root every phase span —
// every child but the per-partition subquery spans — appears at most once,
// whichever route the query takes: SVP, a pass-through point lookup or
// narrow range, a fallback SVP refuses, or an EXPLAIN. A second span of a
// name would read as unexplained time to ChildNamed, which finds the
// first.
func TestTracePhasesAppearOnce(t *testing.T) {
	c := openTest(t, Config{Nodes: 4, Trace: true})
	defer c.Close()
	texts := []string{
		"select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = 7",
		"select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = 9",
		"select count(*) from orders where o_orderkey >= 10 and o_orderkey < 14",
		"select * from orders where o_orderkey < 3000",
		"select n_name from nation where n_nationkey = 3",
		"explain select count(*) from lineitem",
	}
	for _, qn := range tpch.QueryNumbers {
		texts = append(texts, tpch.MustQuery(qn))
	}
	for _, text := range texts {
		res, err := c.Query(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		res.Release()
	}
	log := c.SlowLog()
	if len(log) != len(texts) {
		t.Fatalf("slow log has %d traces, want %d", len(log), len(texts))
	}
	for _, tr := range log {
		seen := map[string]bool{}
		for _, child := range tr.Children {
			if child.Name == "subquery" {
				continue
			}
			if seen[child.Name] {
				t.Errorf("trace %q has two %q phases", tr.Attr("sql"), child.Name)
			}
			seen[child.Name] = true
		}
		if !seen["plan"] {
			t.Errorf("trace %q has no plan phase", tr.Attr("sql"))
		}
	}
}

// TestTracingOffByDefault: without Config.Trace the slow log stays nil
// and queries run untraced.
func TestTracingOffByDefault(t *testing.T) {
	c := openTest(t, Config{Nodes: 2})
	defer c.Close()
	if _, err := c.Query(tpch.MustQuery(6)); err != nil {
		t.Fatal(err)
	}
	if log := c.SlowLog(); log != nil {
		t.Errorf("untraced cluster has a slow log: %d entries", len(log))
	}
}

// TestFaultMetricsMirror: injected faults surface on the registry,
// labeled by node and kind, alongside the resilience counters they
// drive.
func TestFaultMetricsMirror(t *testing.T) {
	c := openTest(t, Config{Nodes: 3})
	defer c.Close()
	inj := NewFaultInjector(1).FlakyEvery(2)
	if err := c.InjectFaults(1, inj); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Query(tpch.MustQuery(6)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	transient := c.Metrics().CounterValue(obs.Labeled(obs.MFaultsDown, "node", "1", "kind", "transient"))
	if transient == 0 {
		t.Error("no injected-transient metric recorded")
	}
	if got := inj.Snapshot().TransientErrs; got != transient {
		t.Errorf("metric %d != injector stats %d", transient, got)
	}
	if c.Metrics().CounterValue(obs.MSubqueryRetries) == 0 &&
		c.Metrics().CounterValue(obs.MBackoffRetries) == 0 {
		t.Error("injected transients should drive a retry counter")
	}
}
