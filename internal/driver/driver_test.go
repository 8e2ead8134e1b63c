package driver

import (
	"database/sql"
	"testing"
	"time"

	apuama "apuama"
	"apuama/internal/proto"
)

// tinySF loads in well under a second: 1 500 orders, ≈ 6 000 lineitems.
const tinySF = 0.001

// startClusterCfg serves a real cluster with the given config and TPC-H
// scale factor over the wire protocol, the way apuamad does, and returns
// it alongside the address.
func startClusterCfg(t *testing.T, cfg apuama.Config, sf float64) (*apuama.Cluster, string) {
	t.Helper()
	cfg.Cost = apuama.DefaultCost()
	cfg.Cost.RealSleep = false
	c, err := apuama.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadTPCH(sf, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := proto.Serve("127.0.0.1:0", c, proto.Options{Metrics: c.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachWireServer(srv)
	t.Cleanup(func() { srv.Close() })
	return c, srv.Addr()
}

func startCluster(t *testing.T) string {
	_, addr := startClusterCfg(t, apuama.Config{Nodes: 2}, tinySF)
	return addr
}

func TestDatabaseSQLRoundTrip(t *testing.T) {
	addr := startCluster(t)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	var n int64
	if err := db.QueryRow("select count(*) from orders").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1500 {
		t.Fatalf("count: %d", n)
	}

	rows, err := db.Query("select o_orderkey, o_totalprice, o_orderdate from orders where o_orderkey <= 3 order by o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil || len(cols) != 3 {
		t.Fatalf("cols: %v %v", cols, err)
	}
	count := 0
	for rows.Next() {
		var key int64
		var price float64
		var date time.Time
		if err := rows.Scan(&key, &price, &date); err != nil {
			t.Fatal(err)
		}
		if date.Year() < 1992 || date.Year() > 1998 {
			t.Errorf("date out of TPC-H range: %v", date)
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("rows: %d", count)
	}
}

// TestStreamingCursorThroughDriver walks a result spanning several
// batch frames, then abandons a second cursor early — the connection
// must serve the follow-up query correctly.
func TestStreamingCursorThroughDriver(t *testing.T) {
	// lineitem holds ≈ 6 000 000 rows per unit of scale factor.
	const frames = 3
	_, addr := startClusterCfg(t, apuama.Config{Nodes: 2}, (frames+0.5)*proto.DefaultBatchRows/6e6)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // force cursor and follow-up onto one conn

	var want, orders int64
	if err := db.QueryRow("select count(*) from lineitem").Scan(&want); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow("select count(*) from orders").Scan(&orders); err != nil {
		t.Fatal(err)
	}
	if want <= frames*proto.DefaultBatchRows {
		t.Fatalf("lineitem too small to span %d batch frames: %d rows", frames+1, want)
	}
	rows, err := db.Query("select l_orderkey from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for rows.Next() {
		var k int64
		if err := rows.Scan(&k); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != want {
		t.Fatalf("streamed %d rows, want %d", n, want)
	}

	rows, err = db.Query("select l_orderkey from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	rows.Close() // abandon mid-stream; the driver cancels the stream
	var cnt int64
	if err := db.QueryRow("select count(*) from orders").Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != orders {
		t.Fatalf("follow-up after abandoned cursor: %d orders, want %d", cnt, orders)
	}
}

func TestExecThroughDriver(t *testing.T) {
	addr := startCluster(t)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Exec("delete from lineitem where l_orderkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.RowsAffected(); err != nil {
		t.Fatal(err)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Error("LastInsertId should be unsupported")
	}
}

func TestDriverErrors(t *testing.T) {
	addr := startCluster(t)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query("select nope from orders"); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := db.Begin(); err == nil {
		t.Error("transactions should be unsupported")
	}
	if _, err := db.Query("select count(*) from orders where o_orderkey = ?", 1); err == nil {
		t.Error("bind args should be rejected")
	}
	bad, err := sql.Open("apuama", "127.0.0.1:1")
	if err == nil {
		if err := bad.Ping(); err == nil {
			t.Error("connecting to a dead address should fail")
		}
		bad.Close()
	}
}

func TestNullScanning(t *testing.T) {
	addr := startCluster(t)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var s sql.NullFloat64
	if err := db.QueryRow("select sum(o_totalprice) from orders where o_orderkey > 99999999").Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s.Valid {
		t.Errorf("empty sum should be NULL: %+v", s)
	}
}
