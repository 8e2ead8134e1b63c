package proto

import (
	"context"
	"fmt"
	"testing"

	"apuama/internal/cache"
)

// benchDrain streams one query and counts rows.
func benchDrain(b *testing.B, c *Client, q string, want int) {
	rows, err := c.QueryStreamContext(context.Background(), q, cache.Control{})
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		if _, err := rows.Next(); err != nil {
			break
		}
		n++
	}
	rows.Close()
	if n != want {
		b.Fatalf("drained %d rows, want %d", n, want)
	}
}

// BenchmarkWireStreamBinary drains a Q1-shaped 40960-row stream.
func BenchmarkWireStreamBinary(b *testing.B) {
	const rows = 40960
	h := &fakeHandler{}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := fmt.Sprintf("select rows %d", rows)
	benchDrain(b, c, q, rows) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDrain(b, c, q, rows)
	}
	b.SetBytes(rows)
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkWireMux16 is 16 workers issuing small queries through ONE
// multiplexed connection; b.N counts individual queries.
func BenchmarkWireMux16(b *testing.B) {
	const rows, workers = 256, 16
	h := &fakeHandler{}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := fmt.Sprintf("select rows %d", rows)
	benchDrain(b, c, q, rows) // warm
	b.ResetTimer()
	b.SetParallelism(workers)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchDrain(b, c, q, rows)
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
