package engine

import (
	"testing"

	"apuama/internal/sqltypes"
)

// TestOneMorselOpenRunsOnCaller pins a fragment cut into one morsel — a
// narrow key range, the shape of every point-lookup sub-query — at
// Parallelism 2 to the caller's goroutine: the run is over when the open
// returns, and the open allocates at most a few objects more than the
// serial plan's (the fragment's run and its closures, the worker's meter
// and context: 9 more here). Starting two workers, a context watcher and a
// waiter for one morsel cost 18 more.
func TestOneMorselOpenRunsOnCaller(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	_, nd := newParallelDB(t, 2000, 3)
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	for _, text := range []string{
		"select ok, total from orders where ok >= $1 and ok < $2",
		"select count(*), sum(total) from orders where ok >= $1 and ok < $2",
	} {
		var allocs [2]float64
		for k, degree := range []int{1, 2} {
			opts := QueryOpts{ForceIndexScan: true, Parallelism: degree}
			p, err := nd.Prepare(mustSelect(t, text), ints(100, 110), opts)
			if err != nil {
				t.Fatal(err)
			}
			var runs []*fragRun
			run := func() {
				cur, err := p.OpenAt(nd.Watermark(), opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				if s, ok := p.root.(*parallelScanOp); ok {
					runs = append(runs, s.run)
				}
				for {
					if err := cur.Next(b); err != nil {
						t.Fatal(err)
					}
					if b.Len() == 0 {
						break
					}
				}
			}
			run()
			allocs[k] = testing.AllocsPerRun(20, run)
			t.Logf("%s at degree %d (%T): %.0f allocations per open", text, degree, p.root, allocs[k])
			for _, r := range runs {
				if r.finished != nil {
					t.Fatalf("degree %d: a one-morsel run started workers", degree)
				}
			}
		}
		if allocs[1] > allocs[0]+12 {
			t.Errorf("%s: a one-morsel open at degree 2 allocates %.0f objects, the serial one %.0f; want at most 12 more", text, allocs[1], allocs[0])
		}
	}
}
