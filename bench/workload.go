package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"apuama/internal/tpch"
)

// The cluster under test is the one a user gets by default; only these
// three numbers are the benchmark's own choice.
const (
	clusterNodes = 4
	scaleFactor  = 0.02
	dataSeed     = 1
)

// refreshRate is the open-loop writer's fixed rate, and refreshOrders
// the orders per block: 20 inserts then their 20 deletes, so the data
// size stays level.
const (
	refreshRate   = 20.0
	refreshOrders = 10
)

// wideSpanDiv sets wide_fetch's key range to maxkey/64 (about 1.9 k rows
// at SF 0.02).
const wideSpanDiv = 64

// op is one client read. The program only ever sees sql; the rest is
// the harness's bookkeeping.
type op struct {
	sql      string
	class    int   // index into workload.classes
	lo, hi   int64 // wide_fetch key range, for the row-count oracle
	wantRows int   // rows the op must return; -1 = not checked per op
}

// workload is one traffic mix. ops builds its seeded read list, sized
// so that a run of the given length never reaches the end.
type workload struct {
	name    string
	why     string
	clients int // closed-loop readers
	writer  bool
	classes []string
	ops     func(seed int64, seconds int) []op
}

var olapClasses = func() []string {
	out := make([]string, len(tpch.QueryNumbers))
	for i, qn := range tpch.QueryNumbers {
		out[i] = fmt.Sprintf("q%02d", qn)
	}
	return out
}()

func maxOrderKey() int64 {
	return tpch.Generator{SF: scaleFactor, Seed: dataSeed}.MaxOrderKey()
}

// readerConns is the most connections a workload's readers may use:
// the issue caps the harness at min(2, NumCPU).
func readerConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

var workloads = []*workload{
	{
		name:    "olap_isolated",
		why:     "paper Fig. 2: one closed-loop client cycles the 8 TPC-H templates; core fan-out and engine scans do the work, proto/driver/memdb idle",
		clients: 1,
		classes: olapClasses,
		ops:     olapOps,
	},
	{
		name:    "olap_refresh",
		why:     "paper Fig. 4: the same reader beside an open-loop 20 stmt/s refresh writer; exercises cluster broadcast, core barrier and engine writes",
		clients: 1,
		writer:  true,
		classes: olapClasses,
		ops:     olapOps,
	},
	{
		name:    "wide_fetch",
		why:     "clustered-key range of ~1.9k 8-column rows: scan is cheap, so gather, memdb compose, sqltypes codec, proto and driver dominate",
		clients: 1,
		classes: []string{"range"},
		ops:     wideOps,
	},
	{
		name:    "oltp_point",
		why:     "two clients doing primary-key lookups on orders: per-request fixed cost (driver, proto, parse, routing, b-tree probe), no scan work",
		clients: readerConns(),
		classes: []string{"point"},
		ops:     pointOps,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// olapOps is rounds of the paper's 8 templates with TPC-H substitution
// parameters: 16 rounds per second of run, about eight times what the
// seed commit gets through.
func olapOps(seed int64, seconds int) []op {
	r := rand.New(rand.NewSource(seed))
	rounds := 16 * seconds
	out := make([]op, 0, rounds*len(tpch.QueryNumbers))
	for i := 0; i < rounds; i++ {
		for class, qn := range tpch.QueryNumbers {
			q, err := tpch.RandomQuery(qn, r)
			if err != nil {
				panic(err) // QueryNumbers and RandomQuery disagree: a bug
			}
			out = append(out, op{sql: q, class: class, wantRows: -1})
		}
	}
	return out
}

func wideSQL(lo, hi int64) string {
	return fmt.Sprintf("select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= %d and l_orderkey < %d", lo, hi)
}

func wideOps(seed int64, seconds int) []op {
	r := rand.New(rand.NewSource(seed))
	maxKey := maxOrderKey()
	span := maxKey / wideSpanDiv
	out := make([]op, 300*seconds)
	for i := range out {
		lo := 1 + r.Int63n(maxKey-span)
		out[i] = op{sql: wideSQL(lo, lo+span), lo: lo, hi: lo + span, wantRows: -1}
	}
	return out
}

func pointSQL(key int64) string {
	return fmt.Sprintf("select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = %d", key)
}

func pointOps(seed int64, seconds int) []op {
	r := rand.New(rand.NewSource(seed))
	maxKey := maxOrderKey()
	out := make([]op, 4000*seconds)
	for i := range out {
		out[i] = op{sql: pointSQL(1 + r.Int63n(maxKey)), wantRows: 1}
	}
	return out
}

// refreshStatements is the writer's list: whole blocks of refreshOrders
// orders (inserts, then the deletes that remove them), enough for the
// run at refreshRate plus one spare block. Every block reuses the same
// keys just above the base population with freshly drawn rows.
func refreshStatements(seed int64, seconds int) []string {
	rs := tpch.NewRefreshStream(tpch.Generator{SF: scaleFactor, Seed: seed}, refreshOrders)
	perBlock := 4 * refreshOrders
	blocks := int(refreshRate)*seconds/perBlock + 2
	var out []string
	for b := 0; b < blocks; b++ {
		out = append(out, rs.Statements()...)
	}
	return out
}

// dueTimes is the open-loop schedule: statement i is due i/rate after
// the start, whatever the system does.
func dueTimes(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// warmupOps is every statement class of the workload once, drawn from a
// seed the timed list does not use.
func warmupOps(w *workload, seed int64) []op {
	all := w.ops(seed^0x5eed, 1)
	seen := make(map[int]bool)
	var out []op
	for _, o := range all {
		if !seen[o.class] {
			seen[o.class] = true
			out = append(out, o)
		}
		if len(out) == len(w.classes) {
			break
		}
	}
	return out
}
