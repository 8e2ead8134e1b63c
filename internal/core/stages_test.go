package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"time"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/fault"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// TestCoreFunctionsStaySmall keeps every function of the package short
// enough to hold in one's head: the controller is a sequence of stages,
// not one frame of closures.
func TestCoreFunctionsStaySmall(t *testing.T) {
	const maxLines = 150
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				funcs++
				from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
				if n := to.Line - from.Line + 1; n > maxLines {
					t.Errorf("%s:%d: %s is %d lines (max %d)", from.Filename, from.Line, fd.Name.Name, n, maxLines)
				}
			}
		}
	}
	if funcs == 0 {
		t.Fatal("parsed no functions")
	}
}

// TestMQOFollowerFailoverTriesEveryLiveNode: a flight follower whose
// leader aborts runs the partition itself, trying each live node once.
// Nodes 0 and 1 fail every request transiently, so only node 2 can
// answer; a follower that excluded just its previous node bounced
// 0 → 1 → 0 and gave up. Its attempts are traced like any other.
func TestMQOFollowerFailoverTriesEveryLiveNode(t *testing.T) {
	opts := DefaultOptions()
	opts.MQO = true
	opts.Cache = cache.Config{Entries: 64, MaxBytes: 16 << 20}
	s := buildStack(t, 3, opts)
	defer s.ctl.Close()
	defer s.eng.Close()
	q := tpch.MustQuery(6)
	want := s.single(t, q)
	for i := 0; i < 2; i++ {
		s.eng.Procs()[i].InjectFaults(fault.New(int64(i)).FlakyEvery(1))
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.SelectStmt)
	plan, err := s.eng.plan(sql.CloneSelect(sel), true)
	if err != nil {
		t.Fatal(err)
	}
	// Lead every partition's flight, as a concurrent query would, so the
	// query under test follows each one.
	snapshot := s.nodes[0].Watermark()
	for _, rg := range plan.ranges {
		if lead, _ := s.eng.cache.JoinPartialFlight(plan.partialFP, rg[0], rg[1], snapshot); !lead {
			t.Fatalf("partition [%d, %d) already has a flight", rg[0], rg[1])
		}
	}
	root := obs.NewTracer(1, 0).StartQuery(q)
	type outcome struct {
		res *engine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.eng.RunSVP(obs.WithSpan(context.Background(), root), sel)
		done <- outcome{res, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.eng.cache.Stats().PartialShares < int64(len(plan.ranges)) {
		if time.Now().After(deadline) {
			t.Fatal("the query never joined the partition flights")
		}
		time.Sleep(time.Millisecond)
	}
	for _, rg := range plan.ranges {
		s.eng.cache.AbortPartialFlight(plan.partialFP, rg[0], rg[1], snapshot)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("query after the leader aborted: %v", out.err)
	}
	assertSameResult(t, "follower failover Q6", out.res, want, false)

	root.End()
	answered := map[string]bool{}
	for _, c := range root.Snapshot().Children {
		if c.Name != "subquery" || c.Attr("follower") != "true" {
			continue
		}
		if c.Attr("error") != "" {
			continue
		}
		if c.Attr("node") != "2" {
			t.Errorf("partition %s answered by node %s, want 2 (nodes 0 and 1 always fail)", c.Attr("partition"), c.Attr("node"))
		}
		answered[c.Attr("partition")] = true
	}
	if len(answered) != len(plan.ranges) {
		t.Errorf("follower subquery spans answered %d of %d partitions", len(answered), len(plan.ranges))
	}
}

// TestBarrierDropsNodeThatLeavesRotation pins the TestChaosSeededResilience
// flake: a replica whose breaker trips while a query's barrier already
// waits for it lags by the write it failed, and can only catch up through
// the write-log replay — which queues behind the next write, held at the
// very gate this barrier closed. The barrier must drop it from the
// fan-out instead of waiting out the query's deadline.
func TestBarrierDropsNodeThatLeavesRotation(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = 3 * time.Second
	s := buildStack(t, 3, opts)
	defer s.ctl.Close()
	procs := s.eng.Procs()
	// Node 2 misses write w, as a replica whose delivery failed does.
	stmt, err := sql.Parse("insert into orders values (90000001, 1, 'O', 1.0, date '1997-01-01', '1-URGENT', 'Clerk#1', 0, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	w := procs[0].TxnCounter() + 1
	for _, p := range procs[:2] {
		if _, err := p.ApplyWrite(context.Background(), w, stmt); err != nil {
			t.Fatal(err)
		}
	}
	q := tpch.MustQuery(4)
	want := s.single(t, q)
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res *engine.Result
	go func() {
		var err error
		res, err = s.eng.RunSVP(context.Background(), sel.(*sql.SelectStmt))
		done <- err
	}()
	// Once the barrier holds the gate (waiting on node 2), trip node 2.
	deadline := time.Now().Add(opts.QueryTimeout)
	for {
		s.eng.gate.mu.Lock()
		blocked := s.eng.gate.blocks > 0
		s.eng.gate.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the query never reached the barrier")
		}
		time.Sleep(100 * time.Microsecond)
	}
	procs[2].SetAdmitted(false)
	if err := <-done; err != nil {
		t.Fatalf("query: %v", err)
	}
	assertSameResult(t, "barrier without the tripped node", res, want, false)
}
