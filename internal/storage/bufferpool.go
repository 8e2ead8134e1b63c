package storage

import (
	"sync"
	"sync/atomic"

	"apuama/internal/costmodel"
)

// BufferPool simulates one node's page cache. It holds no data — the heap
// is shared memory — only residency state: which page IDs would be in this
// node's RAM. Misses charge the node's cost meter with the configured disk
// latency, which is what produces the paper's cache-fit speedup knee.
type BufferPool struct {
	mu    sync.Mutex
	cap   int
	table map[int64]*lruNode
	head  *lruNode // most recently used
	tail  *lruNode // least recently used

	meter  *costmodel.Meter
	hits   atomic.Int64
	misses atomic.Int64
}

type lruNode struct {
	id         int64
	prev, next *lruNode
}

// NewBufferPool returns a pool holding at most capacity pages, charging
// misses to meter.
func NewBufferPool(capacity int, meter *costmodel.Meter) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	hint := capacity
	if hint > 1<<16 {
		hint = 1 << 16 // cap the pre-size; huge pools fill lazily
	}
	return &BufferPool{
		cap:   capacity,
		table: make(map[int64]*lruNode, hint),
		meter: meter,
	}
}

// Access records a read of the page, evicting the LRU page on a miss and
// charging the meter with sequential or random read latency.
func (b *BufferPool) Access(pageID int64, sequential bool) {
	b.AccessTo(pageID, sequential, b.meter)
}

// AccessTo is Access with the miss latency charged to an explicit meter:
// the one of the execution that touched the page (residency is a
// per-node property, the charge the toucher's).
func (b *BufferPool) AccessTo(pageID int64, sequential bool, meter *costmodel.Meter) {
	b.mu.Lock()
	n, ok := b.table[pageID]
	if ok {
		b.moveToFront(n)
		b.mu.Unlock()
		b.hits.Add(1)
		return
	}
	if len(b.table) >= b.cap {
		// Full: evict first and reuse the evicted tail's node, so a miss
		// on a full pool allocates nothing.
		n = b.tail
		b.unlink(n)
		delete(b.table, n.id)
		n.id = pageID
	} else {
		n = &lruNode{id: pageID}
	}
	b.table[pageID] = n
	b.pushFront(n)
	b.mu.Unlock()
	b.misses.Add(1)
	cfg := meter.Config()
	if sequential {
		meter.Charge(cfg.SeqPageRead)
	} else {
		meter.Charge(cfg.RandPageRead)
	}
}

// Contains reports residency without touching recency (used by tests).
func (b *BufferPool) Contains(pageID int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.table[pageID]
	return ok
}

// Stats returns cumulative hits and misses.
func (b *BufferPool) Stats() (hits, misses int64) {
	return b.hits.Load(), b.misses.Load()
}

// ResetStats zeroes the hit/miss counters (page residency is kept, which
// is what "warm cache" measurements need).
func (b *BufferPool) ResetStats() {
	b.hits.Store(0)
	b.misses.Store(0)
}

// Len returns the number of resident pages.
func (b *BufferPool) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.table)
}

func (b *BufferPool) pushFront(n *lruNode) {
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

func (b *BufferPool) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (b *BufferPool) moveToFront(n *lruNode) {
	if b.head == n {
		return
	}
	b.unlink(n)
	b.pushFront(n)
}
