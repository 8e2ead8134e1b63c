// Network driver demo: serve a cluster over TCP (what cmd/apuamad does)
// and use it from a standard database/sql application through the
// "apuama" driver — the reproduction of the paper's JDBC story, where
// applications need no changes when the single DBMS is replaced by the
// cluster.
//
//	go run ./examples/netdriver
package main

import (
	"database/sql"
	"fmt"
	"log"

	apuama "apuama"
	_ "apuama/internal/driver" // registers the "apuama" database/sql driver
	"apuama/internal/proto"
)

func main() {
	// Server side: a 4-node cluster behind the wire protocol.
	c, err := apuama.Open(apuama.Config{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.LoadTPCH(0.002, 1); err != nil {
		log.Fatal(err)
	}
	srv, err := proto.Serve("127.0.0.1:0", c, proto.Options{Metrics: c.Metrics()})
	if err != nil {
		log.Fatal(err)
	}
	c.AttachWireServer(srv)
	defer srv.Close()
	fmt.Printf("cluster serving on %s\n", srv.Addr())

	// Client side: plain database/sql, no Apuama-specific code.
	db, err := sql.Open("apuama", srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		log.Fatal(err)
	}

	var orders int64
	if err := db.QueryRow("select count(*) from orders").Scan(&orders); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orders: %d\n", orders)

	// This OLAP aggregate runs with intra-query parallelism on the
	// server; the client cannot tell — full distribution transparency.
	rows, err := db.Query(`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
		count(*) as count_order
		from lineitem
		where l_shipdate <= date '1998-12-01' - interval '90' day
		group by l_returnflag, l_linestatus
		order by l_returnflag, l_linestatus`)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	fmt.Println("\nQ1 (reduced):")
	for rows.Next() {
		var flag, status string
		var qty float64
		var cnt int64
		if err := rows.Scan(&flag, &status, &qty, &cnt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s %s  qty=%10.0f  orders=%d\n", flag, status, qty, cnt)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}

	// Writes replicate through the same connection.
	if _, err := db.Exec("delete from lineitem where l_orderkey = 9"); err != nil {
		log.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("select count(*) from lineitem where l_orderkey = 9").Scan(&n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrows for order 9 after replicated delete: %d\n", n)
	st := c.Stats()
	fmt.Printf("server-side apuama stats: %d SVP queries, %d sub-queries\n", st.SVPQueries, st.SubQueries)
}
