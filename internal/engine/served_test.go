package engine_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	apuama "apuama"
	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/proto"
)

// servedRange is wide_fetch's statement shape: eight lineitem columns of a
// clustered-key range.
func servedRange(lo, hi int) string {
	return fmt.Sprintf("select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= %d and l_orderkey < %d", lo, hi)
}

// servedCluster serves a four-node TPC-H cluster through the wire protocol
// and dials a client to it. The key domain is [1, 3000], cut into four
// partitions of 750 keys.
func servedCluster(tb testing.TB) (*proto.Client, *apuama.Cluster) {
	tb.Helper()
	cfg := apuama.Config{Nodes: 4, Cost: apuama.DefaultCost()}
	cfg.Cost.RealSleep = false
	c, err := apuama.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Last of all, collect the closed cluster: the allocation pins that run
	// after this one should not pay for its garbage.
	tb.Cleanup(runtime.GC)
	tb.Cleanup(c.Close)
	if err := c.LoadTPCH(0.002, 1); err != nil {
		tb.Fatal(err)
	}
	srv, err := proto.Serve("127.0.0.1:0", c, proto.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cli, err := proto.Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli, c
}

// drainServed streams one query to its end and returns its row count.
func drainServed(tb testing.TB, cli *proto.Client, text string) int {
	rows, err := cli.QueryStreamContext(context.Background(), text, cache.Control{})
	if err != nil {
		tb.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for {
		if _, err := rows.Next(); err == io.EOF {
			return n
		} else if err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

// TestServedRangeFetchBytesPerRow pins what a served range fetch — served
// by proto.Serve and streamed by a proto.Client in the same process —
// allocates per row: the slope between two row counts, so the per-query
// cost (planning the partitions, the streams) cancels. It holds for a range
// that meets two and four partitions (SVP over four nodes, gathered) and
// for one inside a single partition, which passes through to one node.
// Result rows are cut from pooled arenas and go back once the server has
// encoded them, the client decodes into pooled buffers and recycles frame
// payloads, so what is left per row is the copy of its string contents and
// the pools' misses: about 60 B, where fresh rows, row lists and frame
// payloads cost about 590 B.
func TestServedRangeFetchBytesPerRow(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	cli, c := servedCluster(t)
	for _, path := range []struct {
		name   string
		his    [2]int
		routed bool // the range meets one partition: every fetch passes through
	}{
		{"SVP", [2]int{1100, 4100}, false},
		{"pass-through", [2]int{300, 700}, true},
	} {
		before, fetches := c.Stats().PassThrough, int64(0)
		fetch := func(text string) int {
			fetches++
			return drainServed(t, cli, text)
		}
		var rows [2]int
		var bytes [2]float64
		for k, hi := range path.his {
			text := servedRange(100, hi)
			rows[k] = fetch(text)
			bytes[k] = engine.BytesPer(t, 20, func() { fetch(text) })
			t.Logf("%s, %d rows: %.0f B per fetch", path.name, rows[k], bytes[k])
		}
		perRow := (bytes[1] - bytes[0]) / float64(rows[1]-rows[0])
		t.Logf("%s: %.1f B per served row", path.name, perRow)
		if perRow > 150 {
			t.Fatalf("a served range fetch (%s) allocates %.1f B per row, want ≤ 150", path.name, perRow)
		}
		want := int64(0)
		if path.routed {
			want = fetches
		}
		if got := c.Stats().PassThrough - before; got != want {
			t.Fatalf("%s: %d of %d fetches passed through, want %d", path.name, got, fetches, want)
		}
	}
}

// BenchmarkWideFetch serves wide_fetch's range — about 1.9 k rows of eight
// columns — through proto.Serve to a streaming proto.Client on four nodes.
// B/op is its figure: the gather's rows, the composition, the wire codec.
func BenchmarkWideFetch(b *testing.B) {
	cli, _ := servedCluster(b)
	text := servedRange(100, 600)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += drainServed(b, cli, text)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
