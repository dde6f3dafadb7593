package engine

import "container/list"

// lru is the least-recently-used index behind both the result cache and
// the Registry: a map from key to a recency-ordered list slot. It is not
// safe for concurrent use — each owner guards it with its own mutex — and
// it keeps no counters: owners count hits, misses and evictions at their
// own sites, where the matching obs metrics are bumped.
type lru[K comparable, V any] struct {
	capacity int
	order    *list.List // front = most recently used; values are *lruEntry
	byKey    map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[K]*list.Element, capacity),
	}
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// peek returns the value under k without touching its recency.
func (c *lru[K, V]) peek(k K) (V, bool) {
	el, ok := c.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// add stores v under k as the most recently used entry, replacing any
// value already there, then evicts least-recently-used entries down to
// capacity and returns how many it evicted.
func (c *lru[K, V]) add(k K, v V) int {
	if el, ok := c.byKey[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	evicted := 0
	for c.order.Len() > c.capacity {
		c.removeElement(c.order.Back())
		evicted++
	}
	return evicted
}

// remove drops the entry under k, reporting whether there was one.
func (c *lru[K, V]) remove(k K) bool {
	el, ok := c.byKey[k]
	if ok {
		c.removeElement(el)
	}
	return ok
}

// rekey moves the entry under from to key to and marks it most recently
// used. An entry already under to is dropped first; rekey reports whether
// one was. It does nothing when from holds no entry or from == to.
func (c *lru[K, V]) rekey(from, to K) (displaced bool) {
	el, ok := c.byKey[from]
	if !ok || from == to {
		return false
	}
	displaced = c.remove(to)
	delete(c.byKey, from)
	el.Value.(*lruEntry[K, V]).key = to
	c.byKey[to] = el
	c.order.MoveToFront(el)
	return displaced
}

// flush drops every entry and returns how many there were.
func (c *lru[K, V]) flush() int {
	n := c.order.Len()
	c.order.Init()
	clear(c.byKey)
	return n
}

// values returns the stored values in most-recently-used order.
func (c *lru[K, V]) values() []V {
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).val)
	}
	return out
}

func (c *lru[K, V]) len() int { return c.order.Len() }

func (c *lru[K, V]) removeElement(el *list.Element) {
	c.order.Remove(el)
	delete(c.byKey, el.Value.(*lruEntry[K, V]).key)
}
