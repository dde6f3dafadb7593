package opt

import (
	"math"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/rlctree"
)

// testTopoRep is a small topology-insertion problem on the shared test
// line: long enough that at least one repeater pays off, small enough to
// keep the twin-equivalence tests quick.
var testTopoRep = TopoRepeaterProblem{
	Line:    LineSpec{R: 600, L: 8e-9, C: 4e-12, Sections: 8},
	Rep:     Repeater{ROut: 500, CIn: 12e-15, TIntrinsic: 2e-12},
	RSource: 120,
	CLoad:   60e-15,
	MaxK:    3,
	SizeMin: 0.5,
	SizeMax: 100,
}

// testTopology has a heavy critical sink at the far end of the trunk and
// light sinks clustered near it: with cheap stubs, re-homing the light
// sinks to earlier taps takes their capacitance off the critical path,
// so the shallow/light pass has real moves to find.
var testTopology = TopologyProblem{
	Trunk:       LineSpec{R: 400, L: 6e-9, C: 3e-12, Sections: 6},
	RSource:     150,
	StubRPerLen: 150,
	StubLPerLen: 1e-9,
	StubCPerLen: 0.05e-12,
	Lambda:      0,
	Sinks: []SinkSpec{
		{Name: "s0", Pos: 0.12, CLoad: 50e-15},
		{Name: "s1", Pos: 0.41, CLoad: 50e-15},
		{Name: "s2", Pos: 0.77, CLoad: 50e-15},
		{Name: "s3", Pos: 0.95, CLoad: 50e-15},
		{Name: "s4", Pos: 1.0, CLoad: 200e-15},
	},
}

// TestInsertRepeatersTopoMatchesRebuild is the tentpole equivalence
// claim for the insertion optimizer: the incremental session twin and the
// rebuild twin take identical greedy decisions and return bit-identical
// plans, because every delay either path computes is bit-identical.
func TestInsertRepeatersTopoMatchesRebuild(t *testing.T) {
	for _, reseg := range []int{1, 3} {
		p := testTopoRep
		p.Resegment = reseg
		inc, err := InsertRepeatersTopo(p)
		if err != nil {
			t.Fatal(err)
		}
		reb, err := insertRepeatersTopoRebuild(p)
		if err != nil {
			t.Fatal(err)
		}
		if inc.K != reb.K || inc.Evals != reb.Evals {
			t.Fatalf("reseg %d: twins diverged: K %d vs %d, evals %d vs %d",
				reseg, inc.K, reb.K, inc.Evals, reb.Evals)
		}
		if !bitsEq(inc.TotalDelay, reb.TotalDelay) {
			t.Fatalf("reseg %d: total delay %x != %x", reseg,
				math.Float64bits(inc.TotalDelay), math.Float64bits(reb.TotalDelay))
		}
		if len(inc.Placements) != len(reb.Placements) {
			t.Fatalf("reseg %d: placement counts differ", reseg)
		}
		for i := range inc.Placements {
			if inc.Placements[i].After != reb.Placements[i].After ||
				!bitsEq(inc.Placements[i].Size, reb.Placements[i].Size) {
				t.Fatalf("reseg %d: placement %d differs: %+v vs %+v",
					reseg, i, inc.Placements[i], reb.Placements[i])
			}
		}
		for i := range inc.StageDelays {
			if !bitsEq(inc.StageDelays[i], reb.StageDelays[i]) {
				t.Fatalf("reseg %d: stage %d delay differs", reseg, i)
			}
		}
	}
}

// TestInsertRepeatersTopoImprovesDelay pins the optimizer's point: on a
// long resistive line, inserting repeaters strictly beats the bare line.
func TestInsertRepeatersTopoImprovesDelay(t *testing.T) {
	bare := testTopoRep
	bare.MaxK = 0
	base, err := InsertRepeatersTopo(bare)
	if err != nil {
		t.Fatal(err)
	}
	if base.K != 0 || len(base.StageDelays) != 1 {
		t.Fatalf("MaxK=0 must return the bare line: %+v", base)
	}
	plan, err := InsertRepeatersTopo(testTopoRep)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K < 1 {
		t.Fatalf("expected ≥ 1 repeater on the long line, got %+v", plan)
	}
	if plan.K != len(plan.Placements) || plan.K+1 != len(plan.StageDelays) {
		t.Fatalf("inconsistent plan shape: %+v", plan)
	}
	if !(plan.TotalDelay < base.TotalDelay) {
		t.Fatalf("repeaters did not improve delay: %g vs bare %g",
			plan.TotalDelay, base.TotalDelay)
	}
	sum := float64(plan.K) * testTopoRep.Rep.TIntrinsic
	for _, d := range plan.StageDelays {
		sum += d
	}
	if !bitsEq(sum, plan.TotalDelay) {
		t.Fatalf("TotalDelay %g does not equal Σ stages + K·TIntrinsic %g",
			plan.TotalDelay, sum)
	}
	for _, pl := range plan.Placements {
		if !(pl.Size >= testTopoRep.SizeMin && pl.Size <= testTopoRep.SizeMax) {
			t.Fatalf("placement size %g outside search range", pl.Size)
		}
	}
	if plan.Evals == 0 {
		t.Fatal("optimizer reported zero objective evaluations")
	}
}

func TestInsertRepeatersTopoValidation(t *testing.T) {
	cases := []func(*TopoRepeaterProblem){
		func(p *TopoRepeaterProblem) { p.Line.Sections = 0 },
		func(p *TopoRepeaterProblem) { p.Rep.ROut = 0 },
		func(p *TopoRepeaterProblem) { p.RSource = -1 },
		func(p *TopoRepeaterProblem) { p.CLoad = math.NaN() },
		func(p *TopoRepeaterProblem) { p.MaxK = -1 },
		func(p *TopoRepeaterProblem) { p.SizeMin = 0 },
		func(p *TopoRepeaterProblem) { p.SizeMax = p.SizeMin },
		func(p *TopoRepeaterProblem) { p.Resegment = -2 },
	}
	for i, mut := range cases {
		p := testTopoRep
		mut(&p)
		if _, err := InsertRepeatersTopo(p); err == nil {
			t.Fatalf("case %d: invalid problem accepted", i)
		}
	}
}

// TestExploreTopologiesMatchesRebuild pins twin equivalence for the
// sink-regrouping explorer, including the move/pass trajectory — the
// twins must not merely land on the same answer but take the same path.
func TestExploreTopologiesMatchesRebuild(t *testing.T) {
	for _, lambda := range []float64{0, 2e-10} {
		p := testTopology
		p.Lambda = lambda
		inc, err := ExploreTopologies(p)
		if err != nil {
			t.Fatal(err)
		}
		reb, err := exploreTopologiesRebuild(p)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Passes != reb.Passes || inc.Moves != reb.Moves || inc.Evals != reb.Evals {
			t.Fatalf("lambda %g: trajectories diverged: %+v vs %+v", lambda, inc, reb)
		}
		for i := range inc.Taps {
			if inc.Taps[i] != reb.Taps[i] {
				t.Fatalf("lambda %g: sink %d tap %d vs %d", lambda, i, inc.Taps[i], reb.Taps[i])
			}
		}
		if !bitsEq(inc.MaxDelay, reb.MaxDelay) || !bitsEq(inc.StubLength, reb.StubLength) ||
			!bitsEq(inc.Cost, reb.Cost) {
			t.Fatalf("lambda %g: cost terms differ: %+v vs %+v", lambda, inc, reb)
		}
	}
}

// TestExploreTopologiesResultIsConsistent rebuilds the explorer's final
// assignment from scratch and checks the reported cost terms against it:
// the structural churn of accepted and undone moves must leave a tree
// whose delays agree with a clean build of the same topology (values, not
// bits — the churned tree's section order differs from a clean build's,
// so sums may differ in the last ulp).
func TestExploreTopologiesResultIsConsistent(t *testing.T) {
	p := testTopology
	res, err := ExploreTopologies(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("expected the shallow/light pass to accept at least one move")
	}
	if len(res.Taps) != len(p.Sinks) {
		t.Fatalf("want %d taps, got %d", len(p.Sinks), len(res.Taps))
	}
	n := p.Trunk.Sections
	tree := rlctree.New()
	parent := tree.MustAddSection("drv", nil, p.RSource, 0, 0)
	trunk := make([]*rlctree.Section, n)
	for i := 0; i < n; i++ {
		trunk[i] = tree.MustAddSection("t"+itoa(i+1), parent,
			p.Trunk.R/float64(n), p.Trunk.L/float64(n), p.Trunk.C/float64(n))
		parent = trunk[i]
	}
	maxDelay := math.Inf(-1)
	stub := 0.0
	for i, s := range p.Sinks {
		tapPos := float64(res.Taps[i]+1) / float64(n)
		length := math.Abs(s.Pos - tapPos)
		stub += length
		leaf := tree.MustAddSection(s.Name, trunk[res.Taps[i]],
			p.StubRPerLen*length, p.StubLPerLen*length, p.StubCPerLen*length+s.CLoad)
		m, err := core.AtNode(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if d := m.Delay50(); d > maxDelay {
			maxDelay = d
		}
	}
	if math.Abs(maxDelay-res.MaxDelay) > 1e-9*maxDelay {
		t.Fatalf("reported MaxDelay %g disagrees with clean rebuild %g", res.MaxDelay, maxDelay)
	}
	if !bitsEq(stub, res.StubLength) {
		t.Fatalf("reported StubLength %g disagrees with recomputed %g", res.StubLength, stub)
	}
	if !bitsEq(res.Cost, res.MaxDelay+p.Lambda*res.StubLength) {
		t.Fatalf("Cost %g is not MaxDelay + Lambda·StubLength", res.Cost)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestExploreTopologiesValidation(t *testing.T) {
	cases := []func(*TopologyProblem){
		func(p *TopologyProblem) { p.Trunk.Sections = 0 },
		func(p *TopologyProblem) { p.RSource = -1 },
		func(p *TopologyProblem) { p.Sinks = nil },
		func(p *TopologyProblem) { p.Sinks[0].Name = "" },
		func(p *TopologyProblem) { p.Sinks[0].Pos = 1.5 },
		func(p *TopologyProblem) { p.Sinks[0].CLoad = 0 },
		func(p *TopologyProblem) { p.StubRPerLen = -1 },
		func(p *TopologyProblem) { p.Lambda = math.NaN() },
		func(p *TopologyProblem) { p.MaxPasses = -1 },
	}
	for i, mut := range cases {
		p := testTopology
		p.Sinks = append([]SinkSpec(nil), testTopology.Sinks...)
		mut(&p)
		if _, err := ExploreTopologies(p); err == nil {
			t.Fatalf("case %d: invalid problem accepted", i)
		}
	}
}
