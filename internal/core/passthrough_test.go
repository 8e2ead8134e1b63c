package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"apuama/internal/engine"
)

// pointLookup is the oltp_point statement for key k.
func pointLookup(k int) string {
	return fmt.Sprintf("select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = %d", k)
}

// TestPassThroughPlansUnderWrites runs point lookups and narrow ranges
// with fresh literals from four goroutines at once through one cluster —
// each query taking a plan its shape keeps on the node the controller
// picked, re-binding it and giving it back beside the others — with a
// write to orders between rounds. Every answer must be the reference
// node's at the same snapshot, and the round after a write must see it:
// a kept plan whose relation moved is dropped (Prepared.Fresh), not
// re-bound. Run under -race it checks the shapes' free lists.
func TestPassThroughPlansUnderWrites(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	defer s.ctl.Close()
	defer s.eng.Close()
	const clients, perClient, rounds = 4, 8, 4
	r := rand.New(rand.NewSource(46))
	written := []int{}
	for round := 0; round < rounds; round++ {
		texts := make([][]string, clients)
		for c := range texts {
			for i := 0; i < perClient; i++ {
				k := 1 + r.Intn(3000)
				text := pointLookup(k)
				if i%3 == 2 {
					text = fmt.Sprintf("select count(*), sum(o_totalprice) from orders where o_orderkey >= %d and o_orderkey < %d", k, k+1+r.Intn(6))
				}
				texts[c] = append(texts[c], text)
			}
		}
		// The keys written so far, the last one first: the round after a
		// write reads it.
		for i, k := range written {
			texts[i%clients] = append([]string{pointLookup(k)}, texts[i%clients]...)
		}
		passed := s.eng.Snapshot().PassThrough
		got := make([][]*engine.Result, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := range texts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, text := range texts[c] {
					res, err := s.ctl.Query(text)
					if err != nil {
						errs[c] = fmt.Errorf("%s: %w", text, err)
						return
					}
					got[c] = append(got[c], res)
				}
			}(c)
		}
		wg.Wait()
		for c := range texts {
			if errs[c] != nil {
				t.Fatalf("round %d client %d: %v", round, c, errs[c])
			}
			for i, text := range texts[c] {
				want := s.single(t, text)
				assertSameResult(t, fmt.Sprintf("round %d client %d: %s", round, c, text), got[c][i], want, false)
				if k, ok := writtenKey(written, text); ok {
					if rows := got[c][i].Rows; len(rows) != 1 || rows[0][0].F != writtenPrice(k) {
						t.Errorf("round %d: the lookup of written key %d read %v, want the price %v", round, k, rows, writtenPrice(k))
					}
				}
				got[c][i].Release()
			}
		}
		if n := s.eng.Snapshot().PassThrough - passed; n < clients*perClient/2 {
			t.Errorf("round %d: %d queries passed through, want most of %d", round, n, clients*perClient)
		}
		k := 1 + r.Intn(3000)
		if _, err := s.ctl.Exec(fmt.Sprintf("update orders set o_totalprice = %v where o_orderkey = %d", writtenPrice(k), k)); err != nil {
			t.Fatal(err)
		}
		written = append(written, k)
		sh := s.pointShape(t)
		for _, p := range s.eng.Procs() {
			if plan := sh.take(planKey{p: p, pass: true}); plan != nil {
				t.Errorf("round %d: node %d kept a plan of the lookup across a write to orders", round, p.Node().ID())
			}
		}
	}
}

// writtenPrice is the price the test writes to order k: no generated
// order has it.
func writtenPrice(k int) float64 { return float64(k) + 0.125 }

// writtenKey reports the key text looks up when it is a written one.
func writtenKey(written []int, text string) (int, bool) {
	for _, k := range written {
		if text == pointLookup(k) {
			return k, true
		}
	}
	return 0, false
}

// pointShape returns the shape the lookups of pointLookup share.
func (s *stack) pointShape(t *testing.T) *shape {
	t.Helper()
	s.eng.shapes.mu.Lock()
	defer s.eng.shapes.mu.Unlock()
	sh := s.eng.shapes.m["select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = $1"]
	if sh == nil {
		t.Fatal("no shape for the point lookup")
	}
	return sh
}

// TestPointLookupKeepsItsPlan: the nodes the lookups ran on keep a plan
// of their shape, and an in-process lookup makes at most 20 allocations:
// the parse, the lifted key, the re-bound plan's cursor and the result.
func TestPointLookupKeepsItsPlan(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	defer s.ctl.Close()
	defer s.eng.Close()
	texts := make([]string, 512)
	for i := range texts {
		texts[i] = pointLookup(1 + (i*37)%3000)
	}
	i := 0
	lookup := func() {
		res, err := s.ctl.Query(texts[i%len(texts)])
		i++
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	for range 64 {
		lookup()
	}
	sh, kept := s.pointShape(t), 0
	for _, p := range s.eng.Procs() {
		if plan := sh.take(planKey{p: p, pass: true}); plan != nil {
			kept++
			sh.put(planKey{p: p, pass: true}, plan)
		}
	}
	if kept == 0 {
		t.Fatal("no node keeps a plan of the lookup after 64 lookups")
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops what is put back; the allocation pin runs without it")
	}
	const maxAllocs = 20
	if n := testing.AllocsPerRun(500, lookup); n > maxAllocs {
		t.Errorf("a point lookup makes %.1f allocations, want at most %d", n, maxAllocs)
	}
}

// TestSpillingShapesAreEvictedFirst: a shape whose pass-through plan
// spilled keeps no plan for the queries that pass through, so when the
// shape cache is full it goes before shapes that do, however recently it
// was used. The shape counters count every shape added and evicted.
func TestSpillingShapesAreEvictedFirst(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	defer s.ctl.Close()
	defer s.eng.Close()
	query := func(text string) {
		t.Helper()
		if _, err := s.ctl.Query(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	// The lookup's shape is the least recently used one below.
	query(pointLookup(7))
	// An argument in an expression decides the plan: it spills.
	const spilling = "select o_orderkey from orders where o_orderkey < 5 and o_custkey + 1 > 3"
	const spillingShape = "select o_orderkey from orders where (o_orderkey < $1 and (o_custkey + 1) > $2)"
	query(spilling)
	s.eng.shapes.mu.Lock()
	sh := s.eng.shapes.m[spillingShape]
	s.eng.shapes.mu.Unlock()
	if sh == nil || !sh.spills.Load() {
		t.Fatalf("the shape of %q is not marked as spilling: %v", spilling, sh)
	}
	s.pointShape(t)
	for i := 0; len(s.eng.shapes.m) < shapeCacheSize; i++ {
		query(fmt.Sprintf("select o_totalprice as p%d from orders where o_orderkey = 7", i))
	}
	query(spilling) // the most recently used shape
	query("select o_orderstatus from orders where o_orderkey = 7")
	s.pointShape(t)
	s.eng.shapes.mu.Lock()
	_, kept := s.eng.shapes.m[spillingShape]
	s.eng.shapes.mu.Unlock()
	if kept {
		t.Error("the full cache kept the spilling shape and evicted another")
	}
	if st := s.eng.Snapshot(); st.Shapes != shapeCacheSize+1 || st.ShapeEvictions != 1 {
		t.Errorf("Shapes = %d, ShapeEvictions = %d, want %d and 1", st.Shapes, st.ShapeEvictions, shapeCacheSize+1)
	}
}
