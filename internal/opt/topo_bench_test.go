package opt

import (
	"testing"
	"time"
)

// topoRep64 is the gate problem from the ISSUE acceptance criteria: a
// 64-section line, the scale at which per-candidate structural edits plus
// O(depth) queries must beat rebuild-per-query by an order of magnitude.
func topoRep64() TopoRepeaterProblem {
	p := testTopoRep
	p.Line.Sections = 64
	p.MaxK = 2
	return p
}

func topology48() TopologyProblem {
	p := testTopology
	p.Trunk.Sections = 48
	p.Sinks = []SinkSpec{
		{Name: "s0", Pos: 0.08, CLoad: 50e-15},
		{Name: "s1", Pos: 0.22, CLoad: 50e-15},
		{Name: "s2", Pos: 0.35, CLoad: 50e-15},
		{Name: "s3", Pos: 0.47, CLoad: 50e-15},
		{Name: "s4", Pos: 0.58, CLoad: 50e-15},
		{Name: "s5", Pos: 0.69, CLoad: 50e-15},
		{Name: "s6", Pos: 0.78, CLoad: 50e-15},
		{Name: "s7", Pos: 0.86, CLoad: 50e-15},
		{Name: "s8", Pos: 0.93, CLoad: 50e-15},
		{Name: "s9", Pos: 1.0, CLoad: 200e-15},
	}
	p.MaxPasses = 2
	return p
}

// BenchmarkInsertRepeatersTopoIncremental runs topology-level repeater
// insertion on incremental sessions: each candidate placement is a
// detach + two attaches, an O(depth) golden-section size search, and an
// exact structural undo.
func BenchmarkInsertRepeatersTopoIncremental(b *testing.B) {
	p := topoRep64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := InsertRepeatersTopo(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertRepeatersTopoRebuild prices the identical optimization
// at the pre-incremental cost: every delay query clones the tree and runs
// the full summation passes.
func BenchmarkInsertRepeatersTopoRebuild(b *testing.B) {
	p := topoRep64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := insertRepeatersTopoRebuild(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreTopologiesIncremental runs the shallow/light sink
// regrouping pass on an incremental session over a 48-tap trunk.
func BenchmarkExploreTopologiesIncremental(b *testing.B) {
	p := topology48()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExploreTopologies(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreTopologiesRebuild is the rebuild-per-candidate twin of
// BenchmarkExploreTopologiesIncremental.
func BenchmarkExploreTopologiesRebuild(b *testing.B) {
	p := topology48()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exploreTopologiesRebuild(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStructuralOptimizerSpeedup is the CI perf gate for the structural
// kernel: on the 64-section insertion problem the session-based optimizer
// must beat its rebuild twin by at least 10× (the ISSUE floor). Both
// twins take bit-identical greedy decisions, so the ratio isolates the
// cost of evaluating a structural candidate — folded edit plus O(depth)
// query versus clone plus full resweep.
func TestStructuralOptimizerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	p := topoRep64()
	// Double the gate problem's scale: the incremental cost per candidate
	// is O(depth) against the rebuild twin's O(n) clone + resweep, so the
	// ratio widens with n and 128 sections leaves the 10× floor ample
	// headroom on noisy CI runners.
	p.Line.Sections = 128
	p.MaxK = 1
	run := func(f func() (TopoPlan, error)) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			if _, err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	incr := run(func() (TopoPlan, error) { return InsertRepeatersTopo(p) })
	rebuild := run(func() (TopoPlan, error) { return insertRepeatersTopoRebuild(p) })
	speedup := float64(rebuild) / float64(incr)
	t.Logf("incremental %v, rebuild %v, speedup %.1f×", incr, rebuild, speedup)
	if speedup < 10 {
		t.Fatalf("structural optimizer only %.1f× faster than rebuild (need ≥ 10×): %v vs %v",
			speedup, incr, rebuild)
	}
}
