package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer(4, 0)
	root := tr.StartQuery("select 1")
	child := root.Child("dispatch")
	sub := child.Child("subquery")
	sub.Annotate("node", "2")
	sub.End()
	child.End()
	d1 := child.Duration()
	time.Sleep(time.Millisecond)
	child.End() // second End keeps the first duration
	if d2 := child.Duration(); d2 != d1 {
		t.Errorf("End twice changed duration: %v -> %v", d1, d2)
	}
	root.End()

	log := tr.SlowLog()
	if len(log) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(log))
	}
	ss := log[0]
	if ss.Name != "query" || ss.Attr("sql") != "select 1" {
		t.Errorf("root snapshot %q attr sql=%q", ss.Name, ss.Attr("sql"))
	}
	disp, ok := ss.ChildNamed("dispatch")
	if !ok {
		t.Fatal("dispatch child missing")
	}
	sq, ok := disp.ChildNamed("subquery")
	if !ok || sq.Attr("node") != "2" {
		t.Fatalf("subquery child missing or unannotated: %+v", disp)
	}
	if _, ok := ss.ChildNamed("nope"); ok {
		t.Error("ChildNamed found a span that does not exist")
	}
}

func TestTracerRingAndThreshold(t *testing.T) {
	tr := NewTracer(2, 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.StartQuery("fast").End() // below threshold: dropped
	}
	if log := tr.SlowLog(); len(log) != 0 {
		t.Fatalf("fast queries in slow log: %d", len(log))
	}
	for i := 0; i < 3; i++ {
		s := tr.StartQuery("slow")
		time.Sleep(11 * time.Millisecond)
		s.End()
	}
	log := tr.SlowLog()
	if len(log) != 2 {
		t.Fatalf("ring of 2 holds %d", len(log))
	}
	if !log[0].Start.After(log[1].Start) {
		t.Error("slow log not most-recent-first")
	}
}

// TestSpanConcurrentChildren mirrors the dispatch pattern: sub-query
// workers open sibling spans and annotate them from their own
// goroutines while the parent is snapshotted. Run under -race.
func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer(1, 0)
	root := tr.StartQuery("q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c := root.Child("subquery")
				c.Annotate("attempt", "1")
				c.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			root.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	root.End()
	ss := tr.SlowLog()[0]
	if len(ss.Children) != 8*200 {
		t.Errorf("children = %d, want %d", len(ss.Children), 8*200)
	}
}

func TestContextPlumbing(t *testing.T) {
	if s := SpanFrom(context.Background()); s != nil {
		t.Error("empty context must yield nil span")
	}
	// nil span: WithSpan is a no-op and all downstream calls are safe.
	ctx := WithSpan(context.Background(), nil)
	sp := SpanFrom(ctx)
	sp.Annotate("k", "v")
	sp.Child("x").End()
	sp.End()
	if sp != nil {
		t.Error("nil span must stay nil through context")
	}

	tr := NewTracer(1, 0)
	root := tr.StartQuery("q")
	ctx = WithSpan(context.Background(), root)
	if got := SpanFrom(ctx); got != root {
		t.Error("SpanFrom did not return the attached span")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	s := tr.StartQuery("q")
	if s != nil {
		t.Fatal("nil tracer must mint nil spans")
	}
	s.Child("x").Annotate("a", "b")
	s.End()
	if tr.SlowLog() != nil {
		t.Error("nil tracer slow log must be nil")
	}
}

// TestPhasesTileTheQuery: the first phase opens where the query opened,
// each next one where the previous ended, whatever ran between them, and
// the phase still open ends with the query; a Child span (a sub-query)
// moves no phase boundary.
func TestPhasesTileTheQuery(t *testing.T) {
	tr := NewTracer(1, 0)
	root := tr.StartQuery("q")
	time.Sleep(time.Millisecond)
	plan := root.Phase("plan")
	plan.End()
	root.Child("subquery").End()
	time.Sleep(time.Millisecond)
	compose := root.Phase("compose")
	compose.End()
	root.Phase("reply")
	time.Sleep(time.Millisecond)
	root.End()
	ss := tr.SlowLog()[0]
	p, _ := ss.ChildNamed("plan")
	c, _ := ss.ChildNamed("compose")
	r, _ := ss.ChildNamed("reply")
	if got, want := r.Start.Add(r.Duration), ss.Start.Add(ss.Duration); !got.Equal(want) {
		t.Errorf("the phase open at the query's end ends at %v, the query at %v", got, want)
	}
	if !p.Start.Equal(ss.Start) {
		t.Errorf("first phase starts at %v, query at %v", p.Start, ss.Start)
	}
	if !c.Start.Equal(p.Start.Add(p.Duration)) {
		t.Errorf("compose starts at %v, plan ended at %v", c.Start, p.Start.Add(p.Duration))
	}
	if p.Duration < time.Millisecond || c.Duration < time.Millisecond {
		t.Errorf("the time between phases was not charged: plan %v, compose %v", p.Duration, c.Duration)
	}
}
