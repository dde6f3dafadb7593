// Package engine is the concurrent execution layer over the paper's O(n)
// analysis. The closed-form sweep of core.AnalyzeTreeCtx is embarrassingly
// parallel once the two serial summation passes of the Appendix have run:
// each node's second-order model and timing metrics are a pure function of
// (sums, section). The engine exploits that in three ways:
//
//   - AnalyzeTreeParallel runs core's sharded sweep on a worker pool,
//     producing results bit-identical to the serial path;
//   - Engine adds a content-addressed result cache keyed by the tree's
//     Fingerprint, so re-analyzing an unchanged deck is a hash plus a copy;
//   - Batch is a bounded-concurrency scheduler for running many independent
//     inputs (e.g. rlcdelay's multi-file loop) with per-task guard
//     isolation and deterministic, input-ordered results.
//
// All entry points honor context cancellation with guard.ErrCanceled-classed
// errors, and worker goroutines run under guard panic isolation so a fault
// in one shard surfaces as a typed error instead of crashing the process.
package engine

import (
	"context"
	"sync"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers.
type Options struct {
	// Workers is the number of goroutines used for per-node sweeps.
	// 0 (or negative) means runtime.GOMAXPROCS(0).
	Workers int
}

// DefaultCacheEntries is the result-cache capacity of every Engine (each
// entry holds one analyzed tree).
const DefaultCacheEntries = 64

// Engine executes tree analyses on a worker pool with a content-addressed
// result cache. It is safe for concurrent use by multiple goroutines —
// the intended deployment is one shared Engine per process serving many
// requests.
type Engine struct {
	workers int

	mu        sync.Mutex // guards the result cache and its counters
	cache     *lru[rlctree.Fingerprint, []core.NodeAnalysis]
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &Engine{workers: workers, cache: newLRU[rlctree.Fingerprint, []core.NodeAnalysis](DefaultCacheEntries)}
}

// Workers returns the worker-pool width the engine analyzes with.
func (e *Engine) Workers() int { return e.workers }

// AnalyzeTreeParallel is core.AnalyzeTreeSharded with workers <= 0 meaning
// GOMAXPROCS, plus the engine's per-sweep latency and worker-width
// records. Results are bit-identical to the serial core.AnalyzeTreeCtx;
// errors, cancellation and panic isolation are core's.
func AnalyzeTreeParallel(ctx context.Context, t *rlctree.Tree, workers int) ([]core.NodeAnalysis, error) {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	// Two clock reads and two histogram records per sweep, never per node,
	// so the kernel runs as fast as the uninstrumented baseline — the
	// invariant `make obs-check` enforces.
	track := obs.On()
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	out, err := core.AnalyzeTreeSharded(ctx, t, workers)
	if track && err == nil {
		mSweepWorkers.Observe(int64(core.ShardWorkers(t.Len(), workers)))
		mSweepLatency.ObserveSince(t0)
	}
	return out, err
}

// AnalyzeTree computes the equivalent Elmore characterization at every node
// of the tree — the same results as core.AnalyzeTree, bit for bit — using
// the worker pool, and serves repeated trees from the result cache. The
// returned slice is owned by the caller; cached entries are copied out, so
// mutating the result never corrupts the cache.
func (e *Engine) AnalyzeTree(ctx context.Context, t *rlctree.Tree) ([]core.NodeAnalysis, error) {
	if t.Len() == 0 {
		// Match the serial path's error before touching the fingerprint.
		return nil, guard.Newf(guard.ErrTopology, "core", "empty tree")
	}
	lookup, _ := obs.StartSpan(ctx, "cache.lookup")
	lookup.SetSections(t.Len())
	fp := t.Fingerprint()
	if hit, ok := e.cacheGet(fp); ok {
		lookup.EndWith("hit")
		return rebind(hit, t), nil
	}
	lookup.EndWith("miss")
	out, err := AnalyzeTreeParallel(ctx, t, e.workers)
	if err != nil {
		return nil, err
	}
	// The stored copy drops its Section pointers: they would keep the
	// whole tree reachable for as long as the entry stays cached.
	stored := make([]core.NodeAnalysis, len(out))
	copy(stored, out)
	for i := range stored {
		stored[i].Section = nil
	}
	e.cachePut(fp, stored)
	return out, nil
}

func (e *Engine) cacheGet(key rlctree.Fingerprint) ([]core.NodeAnalysis, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	val, ok := e.cache.get(key)
	if ok {
		e.hits++
		if obs.On() {
			mCacheHits.Inc()
		}
	} else {
		e.misses++
		if obs.On() {
			mCacheMisses.Inc()
		}
	}
	return val, ok
}

// cachePut stores val under key. Same fingerprint ⇒ same content ⇒ same
// analysis, so two goroutines analyzing the same tree race here benignly.
func (e *Engine) cachePut(key rlctree.Fingerprint, val []core.NodeAnalysis) {
	e.mu.Lock()
	defer e.mu.Unlock()
	evicted := e.cache.add(key, val)
	e.evictions += uint64(evicted)
	if obs.On() {
		if evicted > 0 {
			mCacheEvictions.Add(uint64(evicted))
		}
		mCacheEntries.Set(int64(e.cache.len()))
	}
}

// rebind copies a cached analysis slice, re-pointing each entry's Section
// at the query tree's sections. Fingerprint equality guarantees the two
// trees have identical section sequences, so index alignment is exact;
// stored entries carry no Section, so this step is what attaches the
// query tree.
func rebind(cached []core.NodeAnalysis, t *rlctree.Tree) []core.NodeAnalysis {
	out := make([]core.NodeAnalysis, len(cached))
	copy(out, cached)
	secs := t.Sections()
	for i := range out {
		out[i].Section = secs[i]
	}
	return out
}

// CacheStats is a point-in-time snapshot of the result cache's counters.
type CacheStats struct {
	Hits      uint64 // lookups served from the cache
	Misses    uint64 // lookups that fell through to analysis
	Evictions uint64 // entries displaced by the capacity bound
	Entries   int    // entries currently resident
	Capacity  int    // the bound, DefaultCacheEntries
}

// CacheStats returns the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Hits:      e.hits,
		Misses:    e.misses,
		Evictions: e.evictions,
		Entries:   e.cache.len(),
		Capacity:  e.cache.capacity,
	}
}
