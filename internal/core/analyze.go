package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// NodeAnalysis collects the equivalent-Elmore characterization of one tree
// node for a step input: the second-order model and the closed-form timing
// quantities of paper Sec. IV, alongside the classical Elmore (Wyatt) RC
// delay for comparison.
type NodeAnalysis struct {
	Section *rlctree.Section
	Model   SecondOrder

	// Step-input metrics (paper eqs. 33–42).
	Delay50      float64 // 50% propagation delay [s]
	RiseTime     float64 // 10–90% rise time [s]
	Overshoot    float64 // first overshoot as a fraction of the final value (0 if monotone)
	SettlingTime float64 // time to settle within ±10% of the final value [s]

	// Classical Elmore (Wyatt) baseline, which ignores inductance.
	ElmoreDelay50  float64
	ElmoreRiseTime float64

	// Degraded is set when Model is an RC (Wyatt) fallback rather than a
	// genuine second-order characterization; DegradedReason says why
	// (zero path inductance, or a non-physical summation that degraded
	// gracefully) and DegradedClass is the matching stable short label
	// (one of the Degraded* constants). See SecondOrder.Degraded.
	Degraded       bool
	DegradedReason string
	DegradedClass  string
}

// SettlingBand is the ±fraction of the final value used for the settling
// time in AnalyzeTree; the paper uses 0.1 (Sec. IV, [47]).
const SettlingBand = 0.1

// AnalyzeTree computes the equivalent Elmore characterization at every node
// of an RLC tree. Its cost is linear in the number of branches — the same
// property that made the classical Elmore delay practical for synthesis —
// because all per-node summations come from the two O(n) passes of the
// paper's Appendix.
func AnalyzeTree(t *rlctree.Tree) ([]NodeAnalysis, error) {
	return AnalyzeTreeCtx(context.Background(), t)
}

// analyzeCheckEvery is how many nodes a sweep processes between context
// checks; per-node work is a handful of closed-form evaluations, so this
// keeps cancellation latency far below a millisecond without paying a
// channel poll on every node. Each shard of a sharded sweep keeps the same
// cadence.
const analyzeCheckEvery = 256

// ShardMinSections is the tree size below which AnalyzeTreeSharded sweeps
// serially: for small trees the per-node closed forms finish faster than
// goroutine startup, and the serial path is bit-identical anyway.
const ShardMinSections = 2048

// AnalyzeTreeCtx is AnalyzeTree under a context: cancellation (or a
// deadline) is honored periodically along the node sweep, returning a
// guard.ErrCanceled-classed error. Per-node model failures carry the
// guard taxonomy with the offending node's name.
func AnalyzeTreeCtx(ctx context.Context, t *rlctree.Tree) ([]NodeAnalysis, error) {
	return analyzeTree(ctx, t, true, 1, nil)
}

// AnalyzeTreeDelays is AnalyzeTreeCtx for consumers that read only the
// delays: it fills Section, Model, Delay50, ElmoreDelay50, ElmoreRiseTime
// and the Degraded fields, bit-identical to AnalyzeTreeCtx, and leaves
// RiseTime, Overshoot and SettlingTime zero. It skips the closed forms a
// delay report never reads — chiefly SettlingTime, which bisects on
// overdamped nodes. Errors, cancellation, spans and metrics are those of
// AnalyzeTreeCtx.
//
// The nodes are appended to dst, in the style of append: a caller that
// sweeps many trees passes the previous result sliced to zero length and
// reuses its backing array. On error dst is returned unextended.
func AnalyzeTreeDelays(ctx context.Context, t *rlctree.Tree, dst []NodeAnalysis) ([]NodeAnalysis, error) {
	return analyzeTree(ctx, t, false, 1, dst)
}

// AnalyzeTreeSharded is AnalyzeTreeCtx with the per-node closed-form sweep
// sharded across ShardWorkers(t.Len(), workers) goroutines. The two O(n)
// summation passes of the paper's Appendix are inherently serial (each
// node's sums depend on its parent's) and run first on the calling
// goroutine; the per-node kernel that follows is independent across
// nodes, so each worker fills a contiguous, disjoint shard of the result
// slice with no synchronization beyond the final join.
//
// Results are bit-identical to AnalyzeTreeCtx: both run the same pure
// per-node kernel on the same sums. On error the returned error is the one
// the serial sweep would have hit first (lowest node index); worker panics
// are isolated by guard.Run and reported as typed errors.
func AnalyzeTreeSharded(ctx context.Context, t *rlctree.Tree, workers int) ([]NodeAnalysis, error) {
	return analyzeTree(ctx, t, true, workers, nil)
}

// ShardWorkers is the number of goroutines AnalyzeTreeSharded sweeps an
// n-section tree with when asked for workers: 1 when workers <= 1 or the
// tree is below ShardMinSections, otherwise workers capped at n.
func ShardWorkers(n, workers int) int {
	if workers <= 1 || n < ShardMinSections {
		return 1
	}
	return min(workers, n)
}

// analyzeTree is the one whole-tree sweep behind AnalyzeTreeCtx (full),
// AnalyzeTreeDelays (!full) and AnalyzeTreeSharded: the O(n) sums, then
// the per-node kernel on one goroutine or across contiguous shards,
// appending the nodes to dst.
func analyzeTree(ctx context.Context, t *rlctree.Tree, full bool, workers int, dst []NodeAnalysis) ([]NodeAnalysis, error) {
	n := t.Len()
	if n == 0 {
		return dst, guard.Newf(guard.ErrTopology, "core", "empty tree")
	}
	if err := guard.Check(ctx); err != nil {
		return dst, err
	}
	workers = ShardWorkers(n, workers)
	// Instrumentation is per-sweep, never per-node: two clock reads and a
	// couple of histogram records for the whole tree, so the closed-form
	// kernel stays as fast as the uninstrumented baseline.
	track := obs.On()
	var t0 time.Time
	sumsSpan, _ := obs.StartSpan(ctx, "sums")
	sumsSpan.SetSections(n)
	if track {
		t0 = time.Now()
	}
	sums := t.ElmoreSums()
	if track {
		mSumsLatency.ObserveSince(t0)
	}
	sumsSpan.End()
	sweepSpan, _ := obs.StartSpan(ctx, "sweep")
	sweepSpan.SetSections(n)
	sweepSpan.SetWorkers(workers)
	if track {
		t0 = time.Now()
	}
	var all []NodeAnalysis
	if cap(dst)-len(dst) >= n {
		all = dst[:len(dst)+n]
	} else {
		// An exact make, not append's size-class rounding: most callers
		// pass no buffer.
		all = make([]NodeAnalysis, len(dst)+n)
		copy(all, dst)
	}
	out := all[len(dst):]
	var err error
	if workers == 1 {
		err = sweep(ctx, sums, t.Sections(), out, 0, n, full)
	} else {
		err = sweepSharded(ctx, sums, t.Sections(), out, workers, full)
	}
	if err != nil {
		sweepSpan.EndWith(guard.ClassName(err))
		return dst, err
	}
	outcome := "ok"
	if track {
		mKernelLatency.ObserveSince(t0)
		if recordDegraded(out) > 0 {
			outcome = "degraded"
		}
	}
	sweepSpan.EndWith(outcome)
	return all, nil
}

// sweep runs the per-node kernel over out[lo:hi].
func sweep(ctx context.Context, sums rlctree.Sums, secs []*rlctree.Section, out []NodeAnalysis, lo, hi int, full bool) error {
	for i := lo; i < hi; i++ {
		if (i-lo)%analyzeCheckEvery == 0 {
			if err := guard.Check(ctx); err != nil {
				return err
			}
		}
		na, err := analyzeNode(sums.SR[i], sums.SL[i], secs[i], full)
		if err != nil {
			return err
		}
		out[i] = na
	}
	return nil
}

// sweepSharded runs sweep over workers contiguous shards of out, worker w
// owning [w·chunk, (w+1)·chunk).
func sweepSharded(ctx context.Context, sums rlctree.Sums, secs []*rlctree.Section, out []NodeAnalysis, workers int, full bool) error {
	n := len(out)
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = guard.Run(ctx, func(ctx context.Context) error {
				return sweep(ctx, sums, secs, out, lo, hi, full)
			})
		}()
	}
	wg.Wait()
	// Each shard stops at its first error and shards are in index order,
	// so the first failed shard holds the lowest-index error — the one a
	// serial sweep returns.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AnalyzeNodeSums computes the characterization for a single section from
// precomputed tree summations (see rlctree.Tree.ElmoreSums). This is the
// per-node kernel of the whole-tree sweeps: given the same sums it is a
// pure constant-time function of one section, so sharding the node range
// across workers yields bit-identical results to the serial pass.
//
// Callers that evaluate many single nodes of an unchanged tree should
// compute the sums once and call this per node — that keeps the per-node
// cost independent of the tree size, the property that makes the model
// usable inside synthesis loops (paper Appendix).
func AnalyzeNodeSums(sums rlctree.Sums, s *rlctree.Section) (NodeAnalysis, error) {
	i := s.Index()
	if i >= len(sums.SR) || i >= len(sums.SL) {
		return NodeAnalysis{}, guard.Newf(guard.ErrTopology, "core",
			"sums cover %d sections but node %q has index %d (stale sums?)", len(sums.SR), s.Name(), i)
	}
	return AnalyzeNodeFromSums(sums.SR[i], sums.SL[i], s)
}

// AnalyzeNodeFromSums builds the characterization of one node directly
// from its two path summations sr = Σ C·R_ik and sl = Σ C·L_ik, without a
// whole-tree Sums value. This is the kernel the incremental session
// (internal/engine.Session) feeds with O(depth)-maintained summations from
// internal/incr; AnalyzeNodeSums is the same kernel indexed into a
// whole-tree sums slice.
func AnalyzeNodeFromSums(sr, sl float64, s *rlctree.Section) (NodeAnalysis, error) {
	return analyzeNode(sr, sl, s, true)
}

// analyzeNode is the per-node kernel: the model and the delays always,
// and with full the rise time, overshoot and settling time too.
func analyzeNode(sr, sl float64, s *rlctree.Section, full bool) (NodeAnalysis, error) {
	m, err := FromSums(sr, sl)
	if err != nil {
		if ge := new(guard.Error); errors.As(err, &ge) {
			return NodeAnalysis{}, ge.WithNode(s.Name())
		}
		return NodeAnalysis{}, err
	}
	na := NodeAnalysis{
		Section:        s,
		Model:          m,
		Delay50:        m.Delay50(),
		ElmoreDelay50:  m.ElmoreDelay50(),
		ElmoreRiseTime: m.ElmoreRiseTime(),
		Degraded:       m.Degraded(),
		DegradedReason: m.DegradedReason(),
		DegradedClass:  m.DegradedClass(),
	}
	if !full {
		return na, nil
	}
	na.RiseTime = m.RiseTime()
	na.Overshoot = m.Overshoot(1)
	if ts, err := m.SettlingTime(SettlingBand); err == nil {
		na.SettlingTime = ts
	} else {
		na.SettlingTime = math.NaN()
	}
	return na, nil
}

// AnalyzeNode computes the characterization for a single section. It runs
// the O(n) summation passes and then evaluates only the requested node —
// it does not build models for the rest of the tree, so looping over nodes
// costs O(n) per call for the sums alone. Callers iterating many nodes of
// an unchanged tree should precompute the sums once and use
// AnalyzeNodeSums (or analyze the whole tree with AnalyzeTree).
func AnalyzeNode(s *rlctree.Section) (NodeAnalysis, error) {
	return AnalyzeNodeSums(s.Tree().ElmoreSums(), s)
}
