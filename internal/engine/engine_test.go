package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// sameAnalyses compares two analysis slices bit-for-bit: identical Section
// pointers and bitwise-equal float fields (NaN-safe, which == is not — the
// SettlingTime of a degenerate node is NaN in both paths and must compare
// equal here).
func sameAnalyses(t *testing.T, got, want []core.NodeAnalysis) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range got {
		g, w := got[i], want[i]
		ok := g.Section == w.Section &&
			eq(g.Model.Zeta(), w.Model.Zeta()) &&
			eq(g.Model.OmegaN(), w.Model.OmegaN()) &&
			eq(g.Model.TauRC(), w.Model.TauRC()) &&
			g.Model.RCOnly() == w.Model.RCOnly() &&
			g.Model.DegradedReason() == w.Model.DegradedReason() &&
			eq(g.Delay50, w.Delay50) &&
			eq(g.RiseTime, w.RiseTime) &&
			eq(g.Overshoot, w.Overshoot) &&
			eq(g.SettlingTime, w.SettlingTime) &&
			eq(g.ElmoreDelay50, w.ElmoreDelay50) &&
			eq(g.ElmoreRiseTime, w.ElmoreRiseTime) &&
			g.Degraded == w.Degraded &&
			g.DegradedReason == w.DegradedReason
		if !ok {
			t.Fatalf("node %d (%s): parallel %+v != serial %+v", i, w.Section.Name(), g, w)
		}
	}
}

// TestParallelMatchesSerialRandomTrees: bit-exact equivalence on randomized
// trees across worker counts 1/2/8, including trees large enough to
// genuinely engage the worker pool and trees with zero-inductance (RC
// degraded) sections.
func TestParallelMatchesSerialRandomTrees(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		for _, sections := range []int{1, 17, 300, core.ShardMinSections + 513} {
			rng := rand.New(rand.NewSource(seed))
			spec := rlctree.RandomSpec{Sections: sections}
			if seed == 2 {
				spec.MaxL = 1e-300 // near-degenerate inductances stress FromSums fallbacks
			}
			tree := rlctree.Random(rng, spec)
			want, err := core.AnalyzeTreeCtx(ctx, tree)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := AnalyzeTreeParallel(ctx, tree, workers)
				if err != nil {
					t.Fatalf("seed=%d n=%d workers=%d: %v", seed, sections, workers, err)
				}
				sameAnalyses(t, got, want)
			}
		}
	}
}

func TestParallelEmptyTree(t *testing.T) {
	if _, err := AnalyzeTreeParallel(context.Background(), rlctree.New(), 4); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("error %v, want guard.ErrTopology", err)
	}
}

// TestParallelErrorMatchesSerial: a node whose Σ C·R overflows to +Inf
// hard-fails analysis; the parallel join must surface the same
// lowest-index failure the serial sweep reports, whichever shard hit it.
func TestParallelErrorMatchesSerial(t *testing.T) {
	tree, err := rlctree.Line("w", core.ShardMinSections+100, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	tree.MustAddSection("boom", tree.Leaves()[0], 1e308, 0, 1e308)
	_, serialErr := core.AnalyzeTreeCtx(context.Background(), tree)
	if serialErr == nil {
		t.Fatal("serial analysis should fail")
	}
	_, parErr := AnalyzeTreeParallel(context.Background(), tree, 8)
	if parErr == nil {
		t.Fatal("parallel analysis should fail")
	}
	if !errors.Is(parErr, guard.ErrNumeric) || parErr.Error() != serialErr.Error() {
		t.Fatalf("parallel error %q != serial error %q", parErr, serialErr)
	}
}

// TestParallelCancelMidSweep: cancellation during the sharded sweep
// surfaces as guard.ErrCanceled. The context fires from a worker's own
// periodic check via a hook context that cancels itself after a fixed
// number of polls, so the sweep is deterministically interrupted mid-range.
func TestParallelCancelMidSweep(t *testing.T) {
	tree, err := rlctree.Line("w", 4*core.ShardMinSections, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &cancelAfterPolls{Context: ctx, cancel: cancel, after: 3}
	_, err = AnalyzeTreeParallel(hook, tree, 4)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want guard.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// cancelAfterPolls cancels its parent context after `after` calls to
// Done(), simulating a deadline that fires while workers are mid-shard.
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	mu     chan struct{} // lazily built mutex-free counter guard
	n      int
	after  int
}

func (c *cancelAfterPolls) Done() <-chan struct{} {
	if c.mu == nil {
		c.mu = make(chan struct{}, 1)
	}
	c.mu <- struct{}{}
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	<-c.mu
	return c.Context.Done()
}

func TestParallelAlreadyCanceled(t *testing.T) {
	tree, err := rlctree.Line("w", 64, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeTreeParallel(ctx, tree, 4); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want guard.ErrCanceled", err)
	}
	e := New(Options{Workers: 4})
	if _, err := e.AnalyzeTree(ctx, tree); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("engine error %v, want guard.ErrCanceled", err)
	}
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("failed analysis must not populate the cache: %+v", st)
	}
}

// TestEngineCacheHitsAndIsolation: repeated analysis of equal-content trees
// is served from the cache with sections rebound to the query tree, and
// mutating a returned slice never corrupts later hits.
func TestEngineCacheHitsAndIsolation(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 2})
	tree := rlctree.Random(rand.New(rand.NewSource(5)), rlctree.RandomSpec{Sections: 50})

	first, err := e.AnalyzeTree(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after miss: %+v", st)
	}
	// Vandalize the caller's copy; the cache must be unaffected.
	first[0].Delay50 = -1
	first[0].Section = nil

	clone := tree.Clone()
	second, err := e.AnalyzeTree(ctx, clone)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after hit: %+v", st)
	}
	want, err := core.AnalyzeTree(clone)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalyses(t, second, want)
	// Rebinding: the hit's sections belong to the clone, not the original.
	for i, a := range second {
		if a.Section != clone.Sections()[i] {
			t.Fatalf("node %d: cached hit kept a foreign Section pointer", i)
		}
	}
}

// TestEngineCacheMissAfterMutation: graft and resegment change the
// fingerprint, so the mutated trees re-analyze (cache miss) with correct
// fresh results — the cache can never serve a stale analysis.
func TestEngineCacheMissAfterMutation(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 2})
	base, err := rlctree.Line("w", 12, rlctree.SectionValues{R: 10, L: 1e-9, C: 40e-15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeTree(ctx, base); err != nil {
		t.Fatal(err)
	}

	grafted := base.Clone()
	sub, err := rlctree.Line("g", 3, rlctree.SectionValues{R: 5, L: 0.5e-9, C: 20e-15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rlctree.Graft(grafted, grafted.Leaves()[0], sub, "g_"); err != nil {
		t.Fatal(err)
	}
	reseg, err := rlctree.Resegment(base, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		tree *rlctree.Tree
	}{{"graft", grafted}, {"resegment", reseg}} {
		got, err := e.AnalyzeTree(ctx, tc.tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := core.AnalyzeTree(tc.tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAnalyses(t, got, want)
	}
	if st := e.CacheStats(); st.Misses != 3 || st.Hits != 0 || st.Entries != 3 {
		t.Fatalf("mutated trees must miss: %+v", st)
	}
}

// TestEngineCacheEviction: the LRU bound holds and evictions are counted.
func TestEngineCacheEviction(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 1})
	trees := make([]*rlctree.Tree, DefaultCacheEntries+1)
	for i := range trees {
		tr, err := rlctree.Line("w", 4+i, rlctree.SectionValues{R: 10, L: 1e-9, C: 40e-15})
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
		if _, err := e.AnalyzeTree(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Entries != DefaultCacheEntries || st.Capacity != DefaultCacheEntries || st.Evictions != 1 {
		t.Fatalf("eviction accounting wrong: %+v", st)
	}
	// trees[0] was evicted (LRU): analyzing it again misses.
	if _, err := e.AnalyzeTree(ctx, trees[0]); err != nil {
		t.Fatal(err)
	}
	// The newest tree is still resident: hit.
	if _, err := e.AnalyzeTree(ctx, trees[len(trees)-1]); err != nil {
		t.Fatal(err)
	}
	st = e.CacheStats()
	if st.Misses != uint64(len(trees)+1) || st.Hits != 1 {
		t.Fatalf("post-eviction lookups wrong: %+v", st)
	}
}

// TestEngineConcurrentUse: one shared engine serving many goroutines —
// mixed hits and misses — must be race-free (run under -race) and correct.
func TestEngineConcurrentUse(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 2})
	trees := make([]*rlctree.Tree, 2*DefaultCacheEntries)
	for i := range trees {
		trees[i] = rlctree.Random(rand.New(rand.NewSource(int64(i))), rlctree.RandomSpec{Sections: 40})
	}
	wants := make([][]core.NodeAnalysis, len(trees))
	for i, tr := range trees {
		w, err := core.AnalyzeTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	goroutines := 4 * len(trees)
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			tr := trees[g%len(trees)]
			got, err := e.AnalyzeTree(ctx, tr)
			if err != nil {
				done <- err
				return
			}
			if len(got) != tr.Len() || got[0].Section != tr.Sections()[0] {
				done <- errors.New("wrong result shape")
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles every tree must still analyze to the serial
	// truth (cache returned copies, so no cross-goroutine aliasing).
	for i, tr := range trees {
		got, err := e.AnalyzeTree(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalyses(t, got, wants[i])
	}
}
