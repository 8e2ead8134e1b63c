package main

import (
	"database/sql"
	"fmt"
	"runtime"
	"time"

	apuama "apuama"
	"apuama/internal/core"
	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/proto"
	sqlp "apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// The layer probes call each layer's exported functions directly, on
// the workload's own statements and on results captured from it, with
// the cluster otherwise idle. They pin the functions bench/README.md
// lists: a refactor that renames one needs a benchmark issue first.

// timed runs fn reps times and returns the median duration of a call.
func timed(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// mallocs runs fn once and returns the heap objects it allocated
// (process-wide, so only meaningful on an idle cluster).
func mallocs(fn func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

func perRow(d time.Duration, rows int) float64 {
	return ratio(float64(d), float64(rows))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerProbes measures every direct-call metric on e's idle cluster.
// ops is the workload's read list and writes its refresh statements.
// The ApplyWrite probe runs last: it moves node watermarks past the
// controller's sequence, so the cluster takes no write after it.
func layerProbes(e *env, ops []op, writes []string, into map[string]float64) error {
	db, nodes, _, _ := e.c.Internals()
	nd := nodes[0]
	snap := nd.Watermark()
	serial := engine.QueryOpts{Parallelism: 1}

	// sql: parse the workload's own statements.
	stmts := make([]string, 0, 64)
	for i := 0; i < len(ops) && i < 48; i++ {
		stmts = append(stmts, ops[i].sql)
	}
	for i := 0; i < len(writes) && i < 16; i++ {
		stmts = append(stmts, writes[i])
	}
	d, err := timed(5, func() error {
		for _, s := range stmts {
			if _, err := sqlp.Parse(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sql.Parse probe: %w", err)
	}
	into["sql.parse_us_per_op"] = micros(d) / float64(len(stmts))

	// core: SVP planning and one sub-query instantiation, on Q1.
	q1, err := sqlp.ParseSelect(tpch.MustQuery(1))
	if err != nil {
		return err
	}
	cat := core.TPCHCatalog()
	lo, hi, err := cat.KeyDomain(db, "lineitem")
	if err != nil {
		return err
	}
	d, err = timed(21, func() error {
		rw, err := core.PlanSVP(q1, cat)
		if err != nil {
			return err
		}
		rw.SubQuery(0, clusterNodes, lo, hi)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core.PlanSVP probe: %w", err)
	}
	into["core.planrewrite_us"] = micros(d)

	// engine: the two scan-bound kernels at degree 1 on node 0.
	lineitem, err := db.Relation("lineitem")
	if err != nil {
		return err
	}
	scanned := int(lineitem.LiveRows())
	for _, k := range []struct {
		name string
		qn   int
	}{{"q1", 1}, {"q6", 6}} {
		sel, err := sqlp.ParseSelect(tpch.MustQuery(k.qn))
		if err != nil {
			return err
		}
		run := func() error {
			_, err := nd.QueryStmtAt(sel, snap, serial)
			return err
		}
		d, err := timed(3, run)
		if err != nil {
			return fmt.Errorf("engine %s probe: %w", k.name, err)
		}
		m, err := mallocs(run)
		if err != nil {
			return err
		}
		into["engine."+k.name+"_ns_per_row"] = perRow(d, scanned)
		into["engine."+k.name+"_allocs_per_row"] = ratio(float64(m), float64(scanned))
	}

	// engine: a clustered-key range fetch and a primary-key lookup.
	maxKey := maxOrderKey()
	span := maxKey / wideSpanDiv
	wide, err := sqlp.ParseSelect(wideSQL(maxKey/2, maxKey/2+span))
	if err != nil {
		return err
	}
	var fetched *engine.Result
	d, err = timed(9, func() error {
		fetched, err = nd.QueryStmtAt(wide, snap, serial)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine range probe: %w", err)
	}
	into["engine.range_fetch_ns_per_row"] = perRow(d, len(fetched.Rows))

	points := make([]*sqlp.SelectStmt, 64)
	for i := range points {
		if points[i], err = sqlp.ParseSelect(pointSQL(1 + int64(i)*(maxKey-1)/int64(len(points)))); err != nil {
			return err
		}
	}
	d, err = timed(5, func() error {
		for _, p := range points {
			if _, err := nd.QueryStmtAt(p, snap, serial); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine point probe: %w", err)
	}
	into["engine.point_lookup_us"] = micros(d) / float64(len(points))

	// storage: build lineitem's column segments from the heap.
	var segBytes int64
	var segRows int
	d, err = timed(3, func() error {
		lineitem.InvalidateSegments()
		set, _ := lineitem.Segments(snap)
		segBytes, segRows = set.Bytes, set.Rows
		return nil
	})
	if err != nil {
		return err
	}
	lineitem.InvalidateSegments() // the default path builds none; leave it that way
	into["storage.segment_build_ms"] = millis(d)
	into["storage.segment_bytes_per_row"] = ratio(float64(segBytes), float64(segRows))

	// memdb: load the captured wide_fetch partial and compose it.
	rw, err := core.PlanSVP(wide, cat)
	if err != nil {
		return fmt.Errorf("memdb probe: %w", err)
	}
	mem := memdb.New()
	var loadNs, composeNs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ld := mem.NewLoader("probe", rw.PartialCols)
		if err := ld.Append(fetched.Rows); err != nil {
			return fmt.Errorf("memdb.Loader.Append probe: %w", err)
		}
		name, err := ld.Finish()
		if err != nil {
			return err
		}
		t1 := time.Now()
		compose := sqlp.CloneSelect(rw.Compose)
		compose.From[0].Name = name
		if _, err := mem.QueryStmt(compose); err != nil {
			return fmt.Errorf("memdb compose probe: %w", err)
		}
		loadNs = append(loadNs, float64(t1.Sub(t0)))
		composeNs = append(composeNs, float64(time.Since(t1)))
	}
	into["memdb.load_ns_per_row"] = ratio(median(loadNs), float64(len(fetched.Rows)))
	into["memdb.compose_ms"] = median(composeNs) / float64(time.Millisecond)

	// sqltypes: the column codec on the same captured rows.
	ncols := len(fetched.Cols)
	bufs := make([][]byte, ncols)
	var sc sqltypes.ColScratch
	d, err = timed(9, func() error {
		for c := 0; c < ncols; c++ {
			out, ok := sqltypes.AppendColumn(bufs[c][:0], fetched.Rows, c, &sc)
			if !ok {
				return fmt.Errorf("sqltypes.AppendColumn refused column %d", c)
			}
			bufs[c] = out
		}
		return nil
	})
	if err != nil {
		return err
	}
	encoded := 0
	for _, b := range bufs {
		encoded += len(b)
	}
	into["sqltypes.encode_ns_per_row"] = perRow(d, len(fetched.Rows))
	into["sqltypes.encoded_bytes_per_row"] = ratio(float64(encoded), float64(len(fetched.Rows)))
	d, err = timed(9, func() error {
		for _, b := range bufs {
			vec, _, err := sqltypes.DecodeColVec(b)
			if err != nil {
				return err
			}
			for i := 0; i < vec.Len(); i++ {
				sinkValue = vec.Value(i)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sqltypes.DecodeColVec probe: %w", err)
	}
	into["sqltypes.decode_ns_per_row"] = perRow(d, len(fetched.Rows))

	// proto and driver: ping, a stub handler's wire-only ceiling, and
	// what database/sql adds over the bare client.
	if err := wireProbes(e, fetched, into); err != nil {
		return err
	}

	// cluster: one write broadcast to every replica, in process, idle.
	block := tpch.NewRefreshStream(tpch.Generator{SF: scaleFactor, Seed: 99}, 4).Statements()
	var execNs []float64
	for _, st := range block {
		t0 := time.Now()
		if _, err := e.c.Exec(st); err != nil {
			return fmt.Errorf("cluster write probe: %w", err)
		}
		execNs = append(execNs, float64(time.Since(t0)))
	}
	into["cluster.write_broadcast_us"] = median(execNs) / float64(time.Microsecond)

	// engine: the same statements applied to node 0 alone. Every node
	// gets each write so the replicas stay identical.
	var applyNs []float64
	for _, st := range block {
		stmt, err := sqlp.Parse(st)
		if err != nil {
			return err
		}
		for i, n := range nodes {
			t0 := time.Now()
			if _, err := n.ApplyWrite(n.Watermark()+1, stmt); err != nil {
				return fmt.Errorf("engine.ApplyWrite probe: %w", err)
			}
			if i == 0 {
				applyNs = append(applyNs, float64(time.Since(t0)))
			}
		}
	}
	into["engine.apply_write_us"] = median(applyNs) / float64(time.Microsecond)
	return nil
}

// sinkValue keeps the decode probe's reads from being optimised away.
var sinkValue sqltypes.Value

// stubHandler serves one pre-built result for any query: what the wire
// and the driver cost when the cluster costs nothing.
type stubHandler struct{ res *apuama.Result }

func (s stubHandler) Query(string) (*apuama.Result, error) { return s.res, nil }
func (s stubHandler) Exec(string) (int64, error)           { return 0, nil }

func wireProbes(e *env, fetched *engine.Result, into map[string]float64) error {
	cli, err := proto.Dial(e.srv.Addr())
	if err != nil {
		return fmt.Errorf("proto.Dial probe: %w", err)
	}
	defer cli.Close()
	d, err := timed(201, cli.Ping)
	if err != nil {
		return fmt.Errorf("proto ping probe: %w", err)
	}
	into["proto.ping_rtt_us"] = micros(d)

	stub, err := proto.Serve("127.0.0.1:0", stubHandler{fetched}, proto.Options{})
	if err != nil {
		return fmt.Errorf("proto.Serve probe: %w", err)
	}
	defer stub.Close()
	sdb, err := sql.Open("apuama", stub.Addr())
	if err != nil {
		return err
	}
	defer sdb.Close()
	scli, err := proto.Dial(stub.Addr())
	if err != nil {
		return err
	}
	defer scli.Close()

	var cl client
	viaSQL, err := timed(41, func() error {
		n, err := cl.query(sdb, "select 1")
		if err == nil && n != len(fetched.Rows) {
			err = fmt.Errorf("stub returned %d rows, want %d", n, len(fetched.Rows))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("stub via database/sql: %w", err)
	}
	viaClient, err := timed(41, func() error {
		res, err := scli.Query("select 1")
		if err == nil && len(res.Rows) != len(fetched.Rows) {
			err = fmt.Errorf("stub returned %d rows, want %d", len(res.Rows), len(fetched.Rows))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("stub via proto.Client: %w", err)
	}
	into["proto.stub_rows_per_s"] = ratio(float64(len(fetched.Rows)), viaSQL.Seconds())
	into["driver.scan_ns_per_row"] = perRow(viaSQL-viaClient, len(fetched.Rows))
	return nil
}
