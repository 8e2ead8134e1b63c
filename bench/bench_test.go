package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"apuama/internal/sqltypes"
)

func opSQL(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(o.sql)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestOpListsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.ops(7, 2), w.ops(7, 2), w.ops(8, 2)
		if len(a) == 0 {
			t.Fatalf("%s: empty op list", w.name)
		}
		if opSQL(a) != opSQL(b) {
			t.Errorf("%s: same seed gave different op lists", w.name)
		}
		if opSQL(a) == opSQL(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
		for _, o := range a {
			if o.class < 0 || o.class >= len(w.classes) {
				t.Fatalf("%s: op class %d outside %v", w.name, o.class, w.classes)
			}
		}
		if warm := warmupOps(w, 7); len(warm) != len(w.classes) {
			t.Errorf("%s: warm-up covers %d of %d classes", w.name, len(warm), len(w.classes))
		}
	}
	a, b, c := refreshStatements(7, 2), refreshStatements(7, 2), refreshStatements(8, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("refresh: same seed gave different statements")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("refresh: seeds 7 and 8 gave the same statements")
	}
	if perBlock := 4 * refreshOrders; len(a)%perBlock != 0 || len(a) < int(refreshRate)*2+perBlock {
		t.Errorf("refresh: %d statements is not whole blocks covering the run plus a spare", len(a))
	}
}

func TestDueTimesDependOnlyOnRate(t *testing.T) {
	a, b := dueTimes(refreshRate, 100), dueTimes(refreshRate, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule is not a pure function of rate and length")
	}
	if a[0] != 0 || a[20] != time.Second || a[99] != 99*time.Second/20 {
		t.Errorf("20/s schedule: due[0]=%v due[20]=%v due[99]=%v", a[0], a[20], a[99])
	}
	if fast := dueTimes(40, 100); fast[20] != time.Second/2 {
		t.Errorf("40/s schedule: due[20]=%v", fast[20])
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	asc := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if v, err := percentile(asc(200), 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (ten beyond)", v, err)
	}
	if _, err := percentile(asc(199), 95); err == nil {
		t.Error("p95 of 199 samples has nine beyond it and was not refused")
	}
	if _, err := percentile(asc(500), 99); err == nil {
		t.Error("p99 of 500 samples has five beyond it and was not refused")
	}
	if v, err := percentile(asc(5), 50); err != nil || v != 3 {
		t.Errorf("median of 1..5 = %v, %v", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing was not refused")
	}
	// The fallback is the highest percentile the sample supports.
	if v := tailPercentile(asc(100), 95); v != 90 {
		t.Errorf("tail of 1..100 = %v; want 90 (ten beyond)", v)
	}
	if v := tailPercentile(asc(12), 95); v != 6 {
		t.Errorf("tail of 1..12 = %v; want the median, 6", v)
	}
	if v := tailPercentile(asc(400), 95); v != 380 {
		t.Errorf("tail of 1..400 = %v; want p95, 380", v)
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// query 0..100: plan 0..10, dispatch 10..20, gather 20..90, compose
	// 90..98; three sub-queries overlap gather, one sticks out past the
	// parent's end and one starts before it.
	q := &span{Name: "query", Start: 0, End: 100, Children: []*span{
		{Name: "plan", Start: 0, End: 10},
		{Name: "dispatch", Start: 10, End: 20},
		{Name: "gather", Start: 20, End: 90},
		{Name: "compose", Start: 90, End: 98},
		{Name: "subquery", Start: 12, End: 60},
		{Name: "subquery", Start: 15, End: 110},
		{Name: "subquery", Start: -5, End: 30},
	}}
	if got := q.self(); got != 0 {
		t.Errorf("query self = %d, want 0: the clipped children cover it", got)
	}
	q.Children = q.Children[:4]
	if got := q.self(); got != 2 {
		t.Errorf("query self = %d, want 2 (98..100 uncovered)", got)
	}
	h := &span{Name: "handler", Start: -3, End: 104, Children: []*span{q}}
	opSpan := &span{Name: "op", Start: -10, End: 120, Children: []*span{h}}
	if got := h.self(); got != 7 {
		t.Errorf("handler self = %d, want 7", got)
	}
	if got := opSpan.self(); got != 23 {
		t.Errorf("op self = %d, want 23", got)
	}
	gap := &span{Start: 0, End: 100, Children: []*span{{Start: 10, End: 20}, {Start: 40, End: 50}, {Start: 45, End: 70}}}
	if got := gap.self(); got != 60 {
		t.Errorf("self with disjoint and overlapping children = %d, want 60", got)
	}

	q.Children = append(q.Children, &span{Name: "subquery", Start: 20, End: 40}, &span{Name: "subquery", Start: 20, End: 80})
	values := map[string]float64{}
	minCover := spanMetrics([]*span{opSpan}, values)
	if minCover != 98 || values["core.phase_cover_pct"] != 98 { // 98/100 is exact in both places
		t.Errorf("phase cover = %v (min %v), want 98", values["core.phase_cover_pct"], minCover)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	if got := values["engine.subquery_busy_ms_per_op"] * 1e6; !near(got, 80) {
		t.Errorf("sub-query busy = %v ns, want 80", got)
	}
	if got := values["core.subquery_max_over_mean"]; got != 1.5 {
		t.Errorf("sub-query max over mean = %v, want 1.5", got)
	}
	if got := values["cluster.other_self_us_per_op"] * 1e3; !near(got, 2) {
		t.Errorf("query root outside its phases = %v ns, want 2", got)
	}
}

func TestGateComparesWithinTolerance(t *testing.T) {
	if !sameValue(100.00000000001, sqltypes.NewFloat(100)) {
		t.Error("floats 1e-13 apart were told apart")
	}
	if sameValue(100.001, sqltypes.NewFloat(100)) {
		t.Error("floats 1e-5 apart passed")
	}
	if !sameValue(int64(3), sqltypes.NewInt(3)) || sameValue(int64(3), sqltypes.NewInt(4)) {
		t.Error("integer comparison is wrong")
	}
	if !sameValue(3.0, sqltypes.NewInt(3)) {
		t.Error("a composed sum widened to float must still match the node's integer")
	}
	if !sameValue(time.Date(1970, 1, 11, 0, 0, 0, 0, time.UTC), sqltypes.NewDate(10)) {
		t.Error("date comparison is wrong")
	}
	if !sameValue(nil, sqltypes.Value{}) || sameValue("x", sqltypes.Value{}) {
		t.Error("NULL comparison is wrong")
	}
	got := [][]any{{int64(2), "b"}, {int64(1), "a"}}
	want := []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewString("a")}, {sqltypes.NewInt(2), sqltypes.NewString("b")}}
	if err := sameResult(got, want, false); err != nil {
		t.Errorf("unordered comparison: %v", err)
	}
	if err := sameResult(got, want, true); err == nil {
		t.Error("ordered comparison accepted rows out of order")
	}
	if err := sameResult(got[:1], want, false); err == nil {
		t.Error("a missing row was accepted")
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better 100→110 = %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("higher-is-better 100→90 = %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement read as %v worse", got)
	}
}

// TestManifestMatchesTheHarness holds BENCHMARK.json and the harness
// together: same workloads, same metric names and units, and a result
// line that carries exactly the declared names.
func TestManifestMatchesTheHarness(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", m.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %s, the harness has none", w.Name)
		} else if findWorkload(w.Name).why != w.Why {
			t.Errorf("workload %s: the two reasons differ", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the harness has %d", names, len(workloads))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, declared []manifestMetric, bounded bool) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
		values := map[string]float64{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %s [%s]: name or unit outside the allowed alphabet", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s %s is declared twice", kind, d.name)
			}
			seen[d.name] = true
			if unit, ok := want[d.name]; !ok {
				t.Errorf("%s %s is not in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s %s: unit %s, BENCHMARK.json says %s", kind, d.name, d.unit, unit)
			}
			values[d.name] = 1
		}
		if len(want) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(want), len(defs))
		}

		metrics, err := collect(defs, values)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		var emitted, declaredNames []string
		for name := range back.Metrics {
			emitted = append(emitted, name)
		}
		for name := range want {
			declaredNames = append(declaredNames, name)
		}
		sort.Strings(emitted)
		sort.Strings(declaredNames)
		if !reflect.DeepEqual(emitted, declaredNames) {
			t.Errorf("%s: the result line carries %v, BENCHMARK.json declares %v", kind, emitted, declaredNames)
		}

		delete(values, defs[0].name)
		if _, err := collect(defs, values); err == nil {
			t.Errorf("%s: a run missing %s was accepted", kind, defs[0].name)
		}
		values[defs[0].name] = 1
		values["not.declared"] = 1
		if _, err := collect(defs, values); err == nil {
			t.Errorf("%s: a run with an undeclared metric was accepted", kind)
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd, true)
	check("per_layer", perLayer, m.PerLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
