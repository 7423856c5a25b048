package abscache

import (
	"container/list"

	"noelle/internal/ir"
)

// lruCache is the store's in-memory tier: a fixed-capacity LRU over
// decoded records, so repeated warm lookups within one process never
// touch the disk twice. Not safe for concurrent use; the Store serializes
// access.
type lruCache struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	byFP  map[ir.Fingerprint]*list.Element
}

type lruEntry struct {
	fp  ir.Fingerprint
	rec *Record
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, order: list.New(), byFP: map[ir.Fingerprint]*list.Element{}}
}

func (c *lruCache) get(fp ir.Fingerprint) (*Record, bool) {
	el, ok := c.byFP[fp]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).rec, true
}

// put inserts (or refreshes) a record, evicting the least recently used
// ones beyond capacity. Eviction loses nothing: a record not yet flushed
// is also in the Store's pending set.
func (c *lruCache) put(fp ir.Fingerprint, rec *Record) {
	if el, ok := c.byFP[fp]; ok {
		el.Value.(*lruEntry).rec = rec
		c.order.MoveToFront(el)
		return
	}
	c.byFP[fp] = c.order.PushFront(&lruEntry{fp: fp, rec: rec})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byFP, last.Value.(*lruEntry).fp)
	}
}
