package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// buildCluster makes a database with one small table replicated over n
// node backends.
func buildCluster(t *testing.T, n int) (*Controller, []*engine.Node) {
	t.Helper()
	db := engine.NewDatabase(costmodel.TestConfig())
	loader := engine.NewNode(-1, db)
	if _, err := loader.Exec("create table kv (k bigint, v varchar, primary key (k))"); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("kv")
	for i := 1; i <= 100; i++ {
		if _, err := rel.Insert(0, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*engine.Node, n)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		nodes[i] = engine.NewNode(i, db)
		backends[i] = &NodeBackend{Node: nodes[i]}
	}
	return New(db, backends, nil), nodes
}

func TestQueryRouting(t *testing.T) {
	c, _ := buildCluster(t, 4)
	res, err := c.Query("select count(*) from kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Fatalf("count: %v", res.Rows[0])
	}
}

func TestWriteBroadcastKeepsReplicasConsistent(t *testing.T) {
	c, nodes := buildCluster(t, 4)
	if _, err := c.Exec("delete from kv where k <= 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("insert into kv (k, v) values (500, 'new')"); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		res, err := nd.Query("select count(*) from kv")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 91 {
			t.Fatalf("node %d count %v", nd.ID(), res.Rows[0])
		}
		if nd.Watermark() != 2 {
			t.Fatalf("node %d watermark %d", nd.ID(), nd.Watermark())
		}
	}
}

func TestConcurrentWritesSerialized(t *testing.T) {
	c, nodes := buildCluster(t, 3)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Exec(fmt.Sprintf("insert into kv (k, v) values (%d, 'w')", 1000+i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for _, nd := range nodes {
		res, _ := nd.Query("select count(*) from kv where k >= 1000")
		if res.Rows[0][0].I != 20 {
			t.Fatalf("node %d: %v", nd.ID(), res.Rows[0])
		}
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	c, _ := buildCluster(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.Exec(fmt.Sprintf("insert into kv (k, v) values (%d, 'c')", 2000+g*100+i)); err != nil {
					t.Error(err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Query("select count(*) from kv"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	res, _ := c.Query("select count(*) from kv where k >= 2000")
	if res.Rows[0][0].I != 40 {
		t.Fatalf("final: %v", res.Rows[0])
	}
}

// blockingBackend parks queries until released, making pending counts
// observable to the balancer.
type blockingBackend struct {
	id      int
	release chan struct{}
	served  int
	mu      sync.Mutex
}

func (b *blockingBackend) ID() int { return b.id }
func (b *blockingBackend) Query(context.Context, string) (*engine.Result, error) {
	b.mu.Lock()
	b.served++
	b.mu.Unlock()
	<-b.release
	return &engine.Result{}, nil
}
func (b *blockingBackend) ApplyWrite(context.Context, int64, sql.Statement) (int64, error) {
	return 0, nil
}
func (b *blockingBackend) Set(*sql.SetStmt) error     { return nil }
func (b *blockingBackend) Watermark() int64           { return 0 }
func (b *blockingBackend) Ping(context.Context) error { return nil }

func TestLeastPendingUnderConcurrency(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	release := make(chan struct{})
	var backends []Backend
	var blocked []*blockingBackend
	for i := 0; i < 4; i++ {
		bb := &blockingBackend{id: i, release: release}
		blocked = append(blocked, bb)
		backends = append(backends, bb)
	}
	c := New(db, backends, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Query("select 1 from kv")
		}()
		// Let each query register as pending before the next picks.
		for {
			total := 0
			for _, bb := range blocked {
				bb.mu.Lock()
				total += bb.served
				bb.mu.Unlock()
			}
			if total > i {
				break
			}
		}
	}
	close(release)
	wg.Wait()
	// 8 queries over 4 backends with visible pending counts: everyone
	// must serve exactly 2.
	for i, bb := range blocked {
		if bb.served != 2 {
			t.Errorf("backend %d served %d", i, bb.served)
		}
	}
}

func TestSetBroadcast(t *testing.T) {
	c, nodes := buildCluster(t, 3)
	if _, err := c.Exec("set enable_seqscan = off"); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.EnableSeqscan() {
			t.Errorf("node %d still has seqscan on", nd.ID())
		}
	}
}

func TestDDLThroughController(t *testing.T) {
	c, nodes := buildCluster(t, 2)
	if _, err := c.Exec("create table t2 (a bigint, primary key (a))"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("create index t2_a on t2 (a)"); err == nil {
		t.Log("duplicate-ish index allowed") // name differs from pkey; fine
	}
	if _, err := nodes[0].Query("select count(*) from t2"); err != nil {
		t.Fatal(err)
	}
}

func TestExecErrors(t *testing.T) {
	c, _ := buildCluster(t, 2)
	if _, err := c.Exec("select 1 from kv"); err == nil {
		t.Error("Exec(SELECT) should fail")
	}
	if _, err := c.Exec("not sql at all"); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := c.Query("select nope from kv"); err == nil {
		t.Error("bad column should fail")
	}
	empty := New(engine.NewDatabase(costmodel.TestConfig()), nil, nil)
	if _, err := empty.Query("select 1 from kv"); err == nil {
		t.Error("no backends should fail")
	}
}

func TestWriteErrorPropagates(t *testing.T) {
	c, _ := buildCluster(t, 2)
	if _, err := c.Exec("delete from missing where k = 1"); err == nil {
		t.Error("write to missing table should fail")
	}
	// Controller must remain usable after a failed write.
	if _, err := c.Exec("insert into kv (k, v) values (999, 'ok')"); err != nil {
		t.Fatal(err)
	}
}

func TestNetMeterCharges(t *testing.T) {
	c, _ := buildCluster(t, 3)
	before := c.NetMeter().Virtual()
	if _, err := c.Query("select k, v from kv where k <= 5"); err != nil {
		t.Fatal(err)
	}
	afterRead := c.NetMeter().Virtual()
	if afterRead <= before {
		t.Error("read did not charge network")
	}
	if _, err := c.Exec("insert into kv (k, v) values (777, 'x')"); err != nil {
		t.Fatal(err)
	}
	cfg := c.NetMeter().Config()
	wrote := c.NetMeter().Virtual() - afterRead
	if wrote < cfg.NetMessage+3*cfg.WriteFanout {
		t.Errorf("write broadcast should charge per replica: %v", wrote)
	}
}

func TestBackendSetWrongStatement(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	nb := &NodeBackend{Node: engine.NewNode(0, db)}
	st := &sql.SetStmt{Name: "enable_seqscan", Value: sqltypes.NewBool(false)}
	if err := nb.Set(st); err != nil {
		t.Fatal(err)
	}
	if nb.Node.EnableSeqscan() {
		t.Error("setting not applied")
	}
	if nb.ID() != 0 {
		t.Error("ID")
	}
}

// downableBackend wraps NodeBackend with a kill switch.
type downableBackend struct {
	*NodeBackend
	down bool
	mu   sync.Mutex
}

func (d *downableBackend) setDown(v bool) {
	d.mu.Lock()
	d.down = v
	d.mu.Unlock()
}

func (d *downableBackend) isDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

func (d *downableBackend) Query(ctx context.Context, q string) (*engine.Result, error) {
	if d.isDown() {
		return nil, ErrBackendDown
	}
	return d.NodeBackend.Query(ctx, q)
}

func (d *downableBackend) ApplyWrite(ctx context.Context, id int64, st sql.Statement) (int64, error) {
	if d.isDown() {
		return 0, ErrBackendDown
	}
	return d.NodeBackend.ApplyWrite(ctx, id, st)
}

func (d *downableBackend) Ping(context.Context) error {
	if d.isDown() {
		return ErrBackendDown
	}
	return nil
}

func TestControllerRecovery(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	loader := engine.NewNode(-1, db)
	if _, err := loader.Exec("create table kv (k bigint, v varchar, primary key (k))"); err != nil {
		t.Fatal(err)
	}
	nodes := []*engine.Node{engine.NewNode(0, db), engine.NewNode(1, db)}
	b0 := &downableBackend{NodeBackend: &NodeBackend{Node: nodes[0]}}
	b1 := &downableBackend{NodeBackend: &NodeBackend{Node: nodes[1]}}
	c := New(db, []Backend{b0, b1}, nil)

	if c.NumBackends() != 2 || c.Backend(0) != Backend(b0) {
		t.Fatal("accessors")
	}
	// Write once healthy, then kill b1 and keep writing.
	if _, err := c.Exec("insert into kv (k, v) values (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	b1.setDown(true)
	for i := 2; i <= 4; i++ {
		if _, err := c.Exec(fmt.Sprintf("insert into kv (k, v) values (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DisabledBackends(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("disabled: %v", got)
	}
	if c.WriteLogLen() != 4 {
		t.Fatalf("log: %d", c.WriteLogLen())
	}
	if b1.Watermark() != 1 {
		t.Fatalf("b1 watermark: %d", b1.Watermark())
	}
	// Node restarts; recovery replays writes 2..4 and re-enables.
	b1.setDown(false)
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if b1.Watermark() != 4 {
		t.Fatalf("post-recovery watermark: %d", b1.Watermark())
	}
	if len(c.DisabledBackends()) != 0 {
		t.Fatal("backend not re-enabled")
	}
	res, err := nodes[1].Query("select count(*) from kv")
	if err != nil || res.Rows[0][0].I != 4 {
		t.Fatalf("recovered data: %v %v", res, err)
	}
	// Further writes reach both replicas.
	if _, err := c.Exec("insert into kv (k, v) values (5, 'z')"); err != nil {
		t.Fatal(err)
	}
	if b0.Watermark() != b1.Watermark() {
		t.Fatal("watermarks diverged after recovery")
	}
	if err := c.Recover(7); err == nil {
		t.Error("bad index should fail")
	}
	// Recovering a still-down backend fails cleanly.
	b0.setDown(true)
	b1.setDown(true)
	if _, err := c.Exec("insert into kv (k, v) values (6, 'q')"); err == nil {
		t.Error("write with all backends down should fail")
	}
	if err := c.Recover(0); err == nil {
		t.Error("recovering an unreachable backend should fail")
	}
}
