package opt

import (
	"math"
	"testing"
)

func TestSwitchingEnergy(t *testing.T) {
	got := SwitchingEnergy(testLine, testRep, 3, 10, 1.0)
	want := (testLine.C + 3*testRep.CIn*10) * 1 * 1
	if math.Abs(got-want) > 1e-20 {
		t.Fatalf("energy = %g, want %g", got, want)
	}
}

func TestRepeaterParetoValidation(t *testing.T) {
	if _, err := RepeaterPareto(LineSpec{}, testRep, 4, 1, 10, 1); err == nil {
		t.Fatal("bad line must fail")
	}
	if _, err := RepeaterPareto(testLine, Repeater{}, 4, 1, 10, 1); err == nil {
		t.Fatal("bad repeater must fail")
	}
	if _, err := RepeaterPareto(testLine, testRep, 0, 1, 10, 1); err == nil {
		t.Fatal("maxK 0 must fail")
	}
	if _, err := RepeaterPareto(testLine, testRep, 4, 10, 1, 1); err == nil {
		t.Fatal("inverted sizes must fail")
	}
	if _, err := RepeaterPareto(testLine, testRep, 4, 1, 10, 0); err == nil {
		t.Fatal("vdd 0 must fail")
	}
}

func TestRepeaterParetoFront(t *testing.T) {
	points, err := RepeaterPareto(testLine, testRep, 8, 0.5, 300, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d points", len(points))
	}
	// Energy must grow strictly with k (each repeater adds input cap).
	for i := 1; i < len(points); i++ {
		if points[i].Energy <= points[i-1].Energy {
			t.Fatalf("energy not increasing at k=%d", points[i].K)
		}
	}
	// The delay-optimal point and the k=1 (lowest-energy candidate among
	// sized designs need not be k=1, but) the global delay minimum must be
	// flagged Pareto.
	best := 0
	for i, p := range points {
		if p.TotalDelay < points[best].TotalDelay {
			best = i
		}
	}
	if !points[best].Pareto {
		t.Fatal("delay-optimal point must be on the front")
	}
	// Every dominated point must really be dominated.
	for i, p := range points {
		if p.Pareto {
			continue
		}
		found := false
		for j, q := range points {
			if i != j && q.TotalDelay <= p.TotalDelay && q.Energy <= p.Energy {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point k=%d marked dominated but is not", p.K)
		}
	}
	// At least two distinct designs on the front (a real trade-off).
	front := 0
	for _, p := range points {
		if p.Pareto {
			front++
		}
	}
	if front < 2 {
		t.Fatalf("degenerate front with %d points", front)
	}
}

// TestInsertRepeatersIsSweepArgmin: InsertRepeaters and RepeaterPareto
// run one sweep; the plan is its first TotalDelay minimum, bit for bit,
// and the Pareto points carry the same K, size and delay per entry.
func TestInsertRepeatersIsSweepArgmin(t *testing.T) {
	rcLine := testLine
	rcLine.L = 0
	for _, line := range []LineSpec{testLine, rcLine} {
		plans, err := repeaterSweep(line, testRep, 10, 0.5, 300)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for i, p := range plans {
			if p.TotalDelay < plans[best].TotalDelay {
				best = i
			}
		}
		plan, err := InsertRepeaters(line, testRep, 10, 0.5, 300)
		if err != nil {
			t.Fatal(err)
		}
		want := plans[best]
		if plan.K != want.K || math.Float64bits(plan.Size) != math.Float64bits(want.Size) ||
			math.Float64bits(plan.StageDelay) != math.Float64bits(want.StageDelay) ||
			math.Float64bits(plan.TotalDelay) != math.Float64bits(want.TotalDelay) {
			t.Fatalf("InsertRepeaters = %+v, sweep argmin = %+v", plan, want)
		}
		points, err := RepeaterPareto(line, testRep, 10, 0.5, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range points {
			p := plans[i]
			if pt.K != p.K || math.Float64bits(pt.Size) != math.Float64bits(p.Size) ||
				math.Float64bits(pt.TotalDelay) != math.Float64bits(p.TotalDelay) {
				t.Fatalf("point %d = %+v, sweep = %+v", i, pt, p)
			}
		}
	}
}
