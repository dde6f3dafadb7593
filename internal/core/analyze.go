package core

import (
	"context"
	"errors"
	"math"
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

// analyzeCheckEvery is how many nodes AnalyzeTreeCtx processes between
// context checks; per-node work is a handful of closed-form evaluations,
// so this keeps cancellation latency far below a millisecond without
// paying a channel poll on every node.
const analyzeCheckEvery = 256

// AnalyzeTreeCtx is AnalyzeTree under a context: cancellation (or a
// deadline) is honored periodically along the node sweep, returning a
// guard.ErrCanceled-classed error. Per-node model failures carry the
// guard taxonomy with the offending node's name.
func AnalyzeTreeCtx(ctx context.Context, t *rlctree.Tree) ([]NodeAnalysis, error) {
	return analyzeTree(ctx, t, true)
}

// AnalyzeTreeDelays is AnalyzeTreeCtx for consumers that read only the
// delays: it fills Section, Model, Delay50, ElmoreDelay50, ElmoreRiseTime
// and the Degraded fields, bit-identical to AnalyzeTreeCtx, and leaves
// RiseTime, Overshoot and SettlingTime zero. It skips the closed forms a
// delay report never reads — chiefly SettlingTime, which bisects on
// overdamped nodes. Errors, cancellation, spans and metrics are those of
// AnalyzeTreeCtx.
func AnalyzeTreeDelays(ctx context.Context, t *rlctree.Tree) ([]NodeAnalysis, error) {
	return analyzeTree(ctx, t, false)
}

// analyzeTree is the one serial sweep behind AnalyzeTreeCtx (full) and
// AnalyzeTreeDelays (!full): the O(n) sums, then the per-node kernel.
func analyzeTree(ctx context.Context, t *rlctree.Tree, full bool) ([]NodeAnalysis, error) {
	n := t.Len()
	if n == 0 {
		return nil, guard.Newf(guard.ErrTopology, "core", "empty tree")
	}
	if err := guard.Check(ctx); err != nil {
		return nil, err
	}
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
	sweepSpan.SetWorkers(1)
	if track {
		t0 = time.Now()
	}
	out := make([]NodeAnalysis, n)
	for i, s := range t.Sections() {
		if i%analyzeCheckEvery == 0 {
			if err := guard.Check(ctx); err != nil {
				sweepSpan.EndWith(guard.ClassName(err))
				return nil, err
			}
		}
		na, err := analyzeNode(sums.SR[i], sums.SL[i], s, full)
		if err != nil {
			sweepSpan.EndWith(guard.ClassName(err))
			return nil, err
		}
		out[i] = na
	}
	outcome := "ok"
	if track {
		mKernelLatency.ObserveSince(t0)
		if RecordDegraded(out) > 0 {
			outcome = "degraded"
		}
	}
	sweepSpan.EndWith(outcome)
	return out, nil
}

// AnalyzeNodeSums computes the characterization for a single section from
// precomputed tree summations (see rlctree.Tree.ElmoreSums). This is the
// per-node kernel shared by the serial sweep of AnalyzeTreeCtx and the
// parallel sweep of internal/engine: given the same sums it is a pure
// constant-time function of one section, so sharding the node range across
// workers yields bit-identical results to the serial pass.
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
