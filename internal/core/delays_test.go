package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// TestAnalyzeTreeDelaysMatchesFull: the delay-only sweep agrees with the
// full sweep bit for bit on every field it fills, leaves the rest zero,
// and fails exactly when and how the full sweep fails.
func TestAnalyzeTreeDelaysMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type tc struct {
		name string
		tree *rlctree.Tree
	}
	var cases []tc
	for i := 0; i < 40; i++ {
		// Up to 600 sections, so the sweep crosses its cancellation
		// check interval.
		cases = append(cases, tc{"random", rlctree.Random(rng, rlctree.RandomSpec{
			Sections: 1 + rng.Intn(600), ChainP: 0.2 + 0.8*rng.Float64(),
		})})
	}
	line := func(name string, v rlctree.SectionValues) {
		tr, err := rlctree.Line("w", 6, v)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name, tr})
	}
	line("zero L", rlctree.SectionValues{R: 25, L: 0, C: 50e-15})
	line("zero R", rlctree.SectionValues{R: 0, L: 1e-9, C: 50e-15})
	line("zero C", rlctree.SectionValues{R: 25, L: 1e-9, C: 0})
	line("underflowing sums", rlctree.SectionValues{R: 1e-300, L: 1e-300, C: 1e-300})
	line("non-physical sums", rlctree.SectionValues{R: 1, L: 1e200, C: 1e200})
	line("overflowing RC sums", rlctree.SectionValues{R: 1e200, L: 1e-9, C: 1e200})
	mixed := rlctree.New() // zero inductance on one branch only
	root := mixed.MustAddSection("root", nil, 10, 0, 20e-15)
	mixed.MustAddSection("rc", root, 10, 0, 20e-15)
	mixed.MustAddSection("rlc", root, 10, 2e-9, 20e-15)
	cases = append(cases, tc{"mixed zero L", mixed})

	bits := math.Float64bits
	for _, c := range cases {
		full, ferr := AnalyzeTreeCtx(context.Background(), c.tree)
		del, derr := AnalyzeTreeDelays(context.Background(), c.tree)
		if (ferr == nil) != (derr == nil) || (ferr != nil && ferr.Error() != derr.Error()) {
			t.Fatalf("%s: full err %v, delays err %v", c.name, ferr, derr)
		}
		if ferr != nil {
			continue
		}
		if len(del) != len(full) {
			t.Fatalf("%s: %d nodes, full %d", c.name, len(del), len(full))
		}
		for i := range full {
			f, d := &full[i], &del[i]
			fm, dm := f.Model, d.Model
			if d.Section != f.Section ||
				bits(dm.Zeta()) != bits(fm.Zeta()) || bits(dm.OmegaN()) != bits(fm.OmegaN()) ||
				bits(dm.TauRC()) != bits(fm.TauRC()) || dm.RCOnly() != fm.RCOnly() ||
				dm.DegradedReason() != fm.DegradedReason() || dm.DegradedClass() != fm.DegradedClass() {
				t.Fatalf("%s node %d: model %v, full %v", c.name, i, dm, fm)
			}
			if bits(d.Delay50) != bits(f.Delay50) || bits(d.ElmoreDelay50) != bits(f.ElmoreDelay50) ||
				bits(d.ElmoreRiseTime) != bits(f.ElmoreRiseTime) {
				t.Fatalf("%s node %d: delays %v/%v/%v, full %v/%v/%v", c.name, i,
					d.Delay50, d.ElmoreDelay50, d.ElmoreRiseTime, f.Delay50, f.ElmoreDelay50, f.ElmoreRiseTime)
			}
			if d.Degraded != f.Degraded || d.DegradedReason != f.DegradedReason || d.DegradedClass != f.DegradedClass {
				t.Fatalf("%s node %d: degraded %v %q, full %v %q", c.name, i, d.Degraded, d.DegradedClass, f.Degraded, f.DegradedClass)
			}
			if d.RiseTime != 0 || d.Overshoot != 0 || d.SettlingTime != 0 {
				t.Fatalf("%s node %d: delay-only sweep filled rise %v overshoot %v settling %v",
					c.name, i, d.RiseTime, d.Overshoot, d.SettlingTime)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeTreeDelays(ctx, cases[0].tree); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled delay sweep: error %v not classed guard.ErrCanceled", err)
	}
	if _, err := AnalyzeTreeDelays(context.Background(), rlctree.New()); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("empty tree: error %v not classed guard.ErrTopology", err)
	}
}
