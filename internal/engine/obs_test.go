package engine

import (
	"context"
	"math/rand"
	"testing"

	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// cacheCounterSnapshot captures the registry's cache counters so tests can
// compare deltas (the default registry is process-global and other tests
// may have bumped it already).
type cacheCounterSnapshot struct {
	hits, misses, evictions uint64
}

func snapCacheCounters() cacheCounterSnapshot {
	return cacheCounterSnapshot{
		hits:      mCacheHits.Value(),
		misses:    mCacheMisses.Value(),
		evictions: mCacheEvictions.Value(),
	}
}

// TestCacheCountersMatchCacheStats is the wiring contract the exposition
// dump relies on: the registry's cache counters move in lockstep with the
// engine's own CacheStats, because both are bumped at the same sites under
// the cache mutex.
func TestCacheCountersMatchCacheStats(t *testing.T) {
	ctx := context.Background()
	eng := New(Options{Workers: 2})
	rng := rand.New(rand.NewSource(7))
	a := rlctree.Random(rng, rlctree.RandomSpec{Sections: 40})
	seq := []*rlctree.Tree{a, a, a}
	for i := 0; i < DefaultCacheEntries; i++ {
		seq = append(seq, rlctree.Random(rng, rlctree.RandomSpec{Sections: 41 + i}))
	}
	seq = append(seq, a)

	before := snapCacheCounters()
	// a: miss, hit, hit; DefaultCacheEntries others: miss (the last
	// evicts a); a: miss again.
	for _, tree := range seq {
		if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	after := snapCacheCounters()
	cs := eng.CacheStats()

	if got := after.hits - before.hits; got != cs.Hits {
		t.Errorf("registry hits delta = %d, CacheStats.Hits = %d", got, cs.Hits)
	}
	if got := after.misses - before.misses; got != cs.Misses {
		t.Errorf("registry misses delta = %d, CacheStats.Misses = %d", got, cs.Misses)
	}
	if got := after.evictions - before.evictions; got != cs.Evictions {
		t.Errorf("registry evictions delta = %d, CacheStats.Evictions = %d", got, cs.Evictions)
	}
	if cs.Hits != 2 || cs.Misses != DefaultCacheEntries+2 {
		t.Errorf("CacheStats = %+v, want 2 hits / %d misses", cs, DefaultCacheEntries+2)
	}
	if cs.Evictions == 0 {
		t.Errorf("expected at least one eviction, got %+v", cs)
	}
	if got := mCacheEntries.Value(); got != int64(cs.Entries) {
		t.Errorf("entries gauge = %d, CacheStats.Entries = %d", got, cs.Entries)
	}
}

// TestSweepHistogramsPerSweep: the engine records exactly one latency and
// one worker-width sample per analysis sweep (cache hits record nothing),
// keeping instrumentation off the per-node path.
func TestSweepHistogramsPerSweep(t *testing.T) {
	ctx := context.Background()
	eng := New(Options{Workers: 3})
	rng := rand.New(rand.NewSource(11))
	tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 30})

	lat0, wrk0 := mSweepLatency.Count(), mSweepWorkers.Count()
	if _, err := eng.AnalyzeTree(ctx, tree); err != nil { // miss: one sweep
		t.Fatal(err)
	}
	if _, err := eng.AnalyzeTree(ctx, tree); err != nil { // hit: no sweep
		t.Fatal(err)
	}
	if got := mSweepLatency.Count() - lat0; got != 1 {
		t.Errorf("sweep latency samples = %d, want 1", got)
	}
	if got := mSweepWorkers.Count() - wrk0; got != 1 {
		t.Errorf("sweep worker samples = %d, want 1", got)
	}
}

// TestObsOffRecordsNothing: with the global switch off, an analysis leaves
// every engine metric untouched — the contract the overhead budget and
// BenchmarkAnalyzeTreeParallelBaseline rest on.
func TestObsOffRecordsNothing(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	ctx := context.Background()
	eng := New(Options{Workers: 2})
	rng := rand.New(rand.NewSource(13))
	tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 25})

	before := snapCacheCounters()
	lat0 := mSweepLatency.Count()
	for i := 0; i < 3; i++ {
		if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	if after := snapCacheCounters(); after != before {
		t.Errorf("cache counters moved while disabled: %+v -> %+v", before, after)
	}
	if got := mSweepLatency.Count(); got != lat0 {
		t.Errorf("sweep latency recorded %d samples while disabled", got-lat0)
	}
	// The engine's own CacheStats must keep counting regardless: the
	// switch gates the observability layer, not the cache.
	if cs := eng.CacheStats(); cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("CacheStats = %+v, want 2 hits / 1 miss with obs off", cs)
	}
}
