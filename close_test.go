package apuama_test

import (
	"database/sql"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"apuama"
	_ "apuama/internal/driver"
	"apuama/internal/engine"
	"apuama/internal/proto"
	"apuama/internal/tpch"
)

// TestCloseReleasesTheCluster: a closed cluster is garbage at the next
// collection. A served query mix runs through the socket — the eight
// templates, clustered-key ranges, point lookups and a LIMIT that stops
// its gather early, from concurrent clients — then the client, the server
// and the cluster close. Close returns only once every goroutine the
// cluster and its server started has exited, so one collection must free
// the cluster's database.
func TestCloseReleasesTheCluster(t *testing.T) {
	freed := make(chan struct{})
	serveMixThenClose(t, freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a collection after Close left the cluster's database reachable")
	}
}

// serveMixThenClose runs the mix on a fresh served cluster, closes it and
// sets a finalizer on its database that closes freed. Nothing of the
// cluster outlives the call but what its goroutines still reach.
func serveMixThenClose(t *testing.T, freed chan struct{}) {
	cfg := apuama.Config{Nodes: 4, Cost: apuama.DefaultCost()}
	cfg.Cost.RealSleep = false
	c, err := apuama.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadTPCH(0.001, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := proto.Serve("127.0.0.1:0", c, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("apuama", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var mix []string
	for _, qn := range tpch.QueryNumbers {
		mix = append(mix, tpch.MustQuery(qn))
	}
	for k := 1; k <= 4; k++ {
		mix = append(mix,
			fmt.Sprintf("select l_orderkey, l_extendedprice, l_comment from lineitem where l_orderkey >= %d and l_orderkey < %d", 500*k, 500*k+400),
			fmt.Sprintf("select o_totalprice, o_orderstatus from orders where o_orderkey = %d", 32*k+1),
			"select o_orderkey, o_clerk from orders limit 5")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range mix {
				rows, err := db.Query(mix[(i+g*5)%len(mix)])
				if err != nil {
					errs <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	db.Close()
	srv.Close()
	c.Close()
	database, _, _, _ := c.Internals()
	runtime.SetFinalizer(database, func(*engine.Database) { close(freed) })
}
