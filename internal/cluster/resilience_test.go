package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
)

// TestBreakerAutoRecovery: a backend crash trips the breaker; once the
// backend is reachable again the background probe replays the missed
// writes from the recovery log and re-admits it — no manual Recover.
func TestBreakerAutoRecovery(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	loader := engine.NewNode(-1, db)
	if _, err := loader.Exec("create table kv (k bigint, v varchar, primary key (k))"); err != nil {
		t.Fatal(err)
	}
	nodes := []*engine.Node{engine.NewNode(0, db), engine.NewNode(1, db)}
	b0 := &downableBackend{NodeBackend: &NodeBackend{Node: nodes[0]}}
	b1 := &downableBackend{NodeBackend: &NodeBackend{Node: nodes[1]}}
	c := New(db, []Backend{b0, b1}, nil)
	defer c.Close()

	b1.setDown(true)
	for i := 1; i <= 3; i++ {
		if _, err := c.Exec(fmt.Sprintf("insert into kv (k, v) values (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DisabledBackends(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("disabled: %v", got)
	}

	// The backend "restarts": the probe loop must notice, replay writes
	// 1..3 and re-admit it, with no Recover call from us.
	b1.setDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for len(c.DisabledBackends()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("backend was not auto-recovered")
		}
		time.Sleep(time.Millisecond)
	}
	if b1.Watermark() != 3 {
		t.Fatalf("post-recovery watermark: %d", b1.Watermark())
	}
	res, err := nodes[1].Query("select count(*) from kv")
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("recovered data: %v %v", res, err)
	}
	st := c.Snapshot()
	if st.BreakerTrips < 1 || st.Probes < 1 || st.AutoRecoveries < 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Later writes reach both replicas again.
	if _, err := c.Exec("insert into kv (k, v) values (4, 'y')"); err != nil {
		t.Fatal(err)
	}
	if b0.Watermark() != b1.Watermark() {
		t.Fatal("watermarks diverged after auto-recovery")
	}
}

// flakyBackend fails the first failures requests of each kind with
// ErrTransient, then behaves.
type flakyBackend struct {
	*NodeBackend
	mu       sync.Mutex
	failures int
}

func (f *flakyBackend) take() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return true
	}
	return false
}

func (f *flakyBackend) Query(ctx context.Context, q string) (*engine.Result, error) {
	if f.take() {
		return nil, ErrTransient
	}
	return f.NodeBackend.Query(ctx, q)
}

func (f *flakyBackend) ApplyWrite(ctx context.Context, id int64, st sql.Statement) (int64, error) {
	if f.take() {
		return 0, ErrTransient
	}
	return f.NodeBackend.ApplyWrite(ctx, id, st)
}

// TestTransientRetriedInPlace: transient failures within the retry
// budget — three retries after the first try, for reads and writes alike
// — never surface to the client and never trip the breaker.
func TestTransientRetriedInPlace(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	loader := engine.NewNode(-1, db)
	if _, err := loader.Exec("create table kv (k bigint, primary key (k))"); err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{NodeBackend: &NodeBackend{Node: engine.NewNode(0, db)}, failures: 3}
	c := New(db, []Backend{fb}, nil)
	defer c.Close()

	if _, err := c.Query("select count(*) from kv"); err != nil {
		t.Fatalf("query should absorb transient failures: %v", err)
	}
	fb.mu.Lock()
	fb.failures = 3
	fb.mu.Unlock()
	if _, err := c.Exec("insert into kv (k) values (1)"); err != nil {
		t.Fatalf("write should absorb transient failures: %v", err)
	}
	st := c.Snapshot()
	if st.TransientRetries != 6 {
		t.Fatalf("want 3 retries per request, 6 in all: %+v", st)
	}
	if st.BreakerTrips != 0 || len(c.DisabledBackends()) != 0 {
		t.Fatalf("breaker tripped on recoverable failures: %+v", st)
	}
}

// TestPersistentTransientTripsBreaker: a backend that never stops
// failing transiently exhausts its retry budget on each read, and the
// third exhausted read trips its breaker. Its pings succeed, so the probe
// re-admits it at once: the trip shows in the counters, not in
// DisabledBackends.
func TestPersistentTransientTripsBreaker(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	loader := engine.NewNode(-1, db)
	if _, err := loader.Exec("create table kv (k bigint, primary key (k))"); err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{NodeBackend: &NodeBackend{Node: engine.NewNode(0, db)}, failures: 1 << 30}
	c := New(db, []Backend{fb}, nil)
	defer c.Close()

	for i := 1; i <= 3; i++ {
		if _, err := c.Query("select count(*) from kv"); err == nil {
			t.Fatal("query should fail while backend is flaky")
		}
		if trips := c.Snapshot().BreakerTrips; trips != int64(i/3) {
			t.Fatalf("after %d exhausted reads: %d breaker trips, want %d", i, trips, i/3)
		}
	}
	st := c.Snapshot()
	if st.TransientRetries != 9 || st.ReadFailovers != 3 {
		t.Fatalf("want 3 retries and 1 failover per read: %+v", st)
	}
}
