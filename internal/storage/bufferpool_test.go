package storage

import (
	"math/rand"
	"testing"

	"apuama/internal/costmodel"
)

// refLRU is the definition of the pool's residency: a recency list, most
// recent first, cut to capacity.
type refLRU struct {
	cap          int
	order        []int64
	hits, misses int64
}

func (r *refLRU) access(id int64) {
	for i, x := range r.order {
		if x == id {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = id
			r.hits++
			return
		}
	}
	r.misses++
	r.order = append([]int64{id}, r.order...)
	if len(r.order) > r.cap {
		r.order = r.order[:r.cap]
	}
}

// TestBufferPoolMatchesReferenceLRU: on seeded access traces — uniform,
// skewed to a hot set, sequential sweeps — the pool, which reuses the
// evicted node on a miss when full, keeps exactly the reference LRU's
// hit/miss counts and resident set, capacity 1 included.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := []int{1, 2, 7, 32}[seed%4]
		pages := int64(capacity + r.Intn(3*capacity+4))
		pool := NewBufferPool(capacity, costmodel.NewMeter(costmodel.TestConfig()))
		ref := &refLRU{cap: capacity}
		for i := 0; i < 3000; i++ {
			var id int64
			switch r.Intn(3) {
			case 0:
				id = r.Int63n(pages)
			case 1:
				id = r.Int63n(int64(capacity)/2 + 1) // hot set
			default:
				id = int64(i) % pages // sweep
			}
			pool.AccessTo(id, r.Intn(2) == 0, pool.meter)
			ref.access(id)
		}
		hits, misses := pool.Stats()
		if hits != ref.hits || misses != ref.misses {
			t.Fatalf("seed %d: pool %d hits / %d misses, reference LRU %d / %d", seed, hits, misses, ref.hits, ref.misses)
		}
		if pool.Len() != len(ref.order) {
			t.Fatalf("seed %d: pool holds %d pages, reference %d", seed, pool.Len(), len(ref.order))
		}
		for id := int64(0); id < pages; id++ {
			want := false
			for _, x := range ref.order {
				want = want || x == id
			}
			if pool.Contains(id) != want {
				t.Fatalf("seed %d: page %d resident = %v, reference %v", seed, id, pool.Contains(id), want)
			}
		}
	}
}

// TestBufferPoolFullMissAllocatesNothing: a miss on a full pool reuses the
// evicted node.
func TestBufferPoolFullMissAllocatesNothing(t *testing.T) {
	const capacity = 64
	pool := NewBufferPool(capacity, costmodel.NewMeter(costmodel.TestConfig()))
	next := int64(0)
	miss := func() {
		pool.AccessTo(next, true, pool.meter)
		next++
	}
	// Fill the pool, then churn it long enough that the page table has
	// reached its steady size.
	for i := 0; i < 100*capacity; i++ {
		miss()
	}
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Errorf("a miss on a full pool allocates %.2f objects, want 0", allocs)
	}
	if _, misses := pool.Stats(); misses != next {
		t.Fatalf("%d misses for %d distinct pages", misses, next)
	}
}
