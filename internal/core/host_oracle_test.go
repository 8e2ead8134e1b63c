package core

import (
	"fmt"
	"runtime"
	"testing"

	"apuama/internal/tpch"
)

// TestOracleParallelismEquivalence: a cluster's answers do not depend on
// the host. Every SVP sub-query runs serially on the claim loop that took
// its partition, so how many cores the runtime schedules goroutines on
// changes which node answers which partition, never an answer. The eight
// templates, a wide_fetch clustered-key range and a point lookup on a
// four-node cluster built and queried under GOMAXPROCS 1 must equal, bit
// for bit, the same cluster's under GOMAXPROCS 8.
func TestOracleParallelismEquivalence(t *testing.T) {
	queries := map[string]string{
		"wide_fetch": "select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= 1000 and l_orderkey < 3000",
		"oltp_point": "select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = 2019",
	}
	for _, qn := range tpch.QueryNumbers {
		queries[fmt.Sprintf("Q%d", qn)] = tpch.MustQuery(qn)
	}
	answers := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := buildStack(t, 4, DefaultOptions())
		out := map[string]string{}
		for name, text := range queries {
			res, err := s.ctl.Query(text)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, name, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("GOMAXPROCS %d, %s: empty answer proves nothing", procs, name)
			}
			out[name] = bitFingerprint(res)
		}
		// Fault-free, no partition is claimed or dispatched twice.
		if st := s.eng.Snapshot(); st.SubQueries != st.AVPPartitions {
			t.Errorf("GOMAXPROCS %d: %d sub-queries for %d partitions", procs, st.SubQueries, st.AVPPartitions)
		}
		return out
	}
	one, eight := answers(1), answers(8)
	for name := range queries {
		if one[name] != eight[name] {
			t.Errorf("%s differs between GOMAXPROCS 1 and 8:\n%s\nvs\n%s", name, one[name], eight[name])
		}
	}
}
