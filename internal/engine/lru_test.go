package engine

import (
	"slices"
	"testing"
)

func lruOf(capacity int, keys ...string) *lru[string, int] {
	c := newLRU[string, int](capacity)
	for i, k := range keys {
		c.add(k, i)
	}
	return c
}

func wantValues(t *testing.T, c *lru[string, int], want ...int) {
	t.Helper()
	if got := c.values(); !slices.Equal(got, want) {
		t.Fatalf("values (MRU first) = %v, want %v", got, want)
	}
	if c.len() != len(want) {
		t.Fatalf("len = %d, want %d", c.len(), len(want))
	}
}

func TestLRUOrder(t *testing.T) {
	c := lruOf(4, "a", "b", "c")
	wantValues(t, c, 2, 1, 0)
	if v, ok := c.get("a"); !ok || v != 0 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	wantValues(t, c, 0, 2, 1)
	if v, ok := c.peek("b"); !ok || v != 1 {
		t.Fatalf("peek(b) = %d, %v", v, ok)
	}
	wantValues(t, c, 0, 2, 1) // peek leaves recency alone
	if n := c.add("b", 7); n != 0 {
		t.Fatalf("re-adding a resident key evicted %d", n)
	}
	wantValues(t, c, 7, 0, 2)
	if _, ok := c.get("z"); ok {
		t.Fatal("get of an absent key hit")
	}
	if !c.remove("a") || c.remove("a") {
		t.Fatal("remove must report presence exactly once")
	}
	wantValues(t, c, 7, 2)
}

func TestLRUEvictsAtCapacity(t *testing.T) {
	c := lruOf(2, "a", "b")
	c.get("a") // b is now least recently used
	if n := c.add("c", 2); n != 1 {
		t.Fatalf("add over capacity evicted %d, want 1", n)
	}
	if _, ok := c.peek("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	wantValues(t, c, 2, 0)
}

func TestLRURekey(t *testing.T) {
	c := lruOf(4, "a", "b", "c")
	if c.rekey("a", "d") {
		t.Fatal("rekey onto a free key reported a displacement")
	}
	wantValues(t, c, 0, 2, 1)
	if _, ok := c.peek("a"); ok {
		t.Fatal("old key still resolves after rekey")
	}
	// Onto an occupied key: the occupant is dropped, the mover keeps its
	// value and becomes most recently used.
	if !c.rekey("b", "c") {
		t.Fatal("rekey onto an occupied key must report the displacement")
	}
	wantValues(t, c, 1, 0)
	if v, _ := c.peek("c"); v != 1 {
		t.Fatalf("c = %d after rekey, want the mover's 1", v)
	}
	if c.rekey("zz", "a") || c.rekey("c", "c") {
		t.Fatal("rekey of an absent key or onto itself must be a no-op")
	}
	wantValues(t, c, 1, 0)
}

func TestLRUFlush(t *testing.T) {
	c := lruOf(4, "a", "b", "c")
	if n := c.flush(); n != 3 {
		t.Fatalf("flush dropped %d, want 3", n)
	}
	wantValues(t, c)
	if _, ok := c.get("a"); ok {
		t.Fatal("flushed key still resolves")
	}
	c.add("a", 9)
	wantValues(t, c, 9)
}
