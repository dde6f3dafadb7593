package mor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eedtree/internal/circuit"
	"eedtree/internal/mna"
	"eedtree/internal/moments"
	"eedtree/internal/rlctree"
	"eedtree/internal/sources"
)

// TestMomentsMatchTreeRecursion: the MNA-descriptor moment computation and
// the tree recursion of internal/moments are independent formulations of
// the same quantities; they must agree on random trees at every node.
//
// They differ by one known physical term: the MNA descriptor carries the
// SPICE-style Gmin leakage at every node, which the ideal tree recursion
// lacks, and on high-impedance trees it perturbs the moments by up to
// ~Gmin·R per order. So each residual is bounded by the measured Gmin
// effect — the shift of the same moment when a second deck adds one more
// 1/Gmin shunt at every node — rather than by a fixed tolerance.
func TestMomentsMatchTreeRecursion(t *testing.T) {
	const (
		gminMultiple = 2    // residual allowed per unit of the measured Gmin shift
		residualTol  = 1e-6 // relative residual allowed beyond it
		order        = 4
	)
	check := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		tree := rlctree.Random(rng, rlctree.RandomSpec{Sections: 2 + rng.Intn(12)})
		treeMoments, err := moments.Compute(tree, order)
		if err != nil {
			return err
		}
		deck, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
		if err != nil {
			return err
		}
		leaky, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
		if err != nil {
			return err
		}
		for _, name := range leaky.NodeNames()[1:] { // every node but ground
			if _, err := leaky.AddResistor("Rgmin_"+name, name, "0", 1/mna.Gmin); err != nil {
				return err
			}
		}
		for _, s := range tree.Sections() {
			node, ok := deck.Lookup(s.Name())
			lnode, lok := leaky.Lookup(s.Name())
			if !ok || !lok {
				return fmt.Errorf("seed %d: node %s missing from a deck", seed, s.Name())
			}
			deckMoments, err := Moments(deck, node, order)
			if err != nil {
				return err
			}
			leakyMoments, err := Moments(leaky, lnode, order)
			if err != nil {
				return err
			}
			for k := 0; k <= order; k++ {
				a, b := treeMoments[k][s.Index()], deckMoments[k]
				shift := math.Abs(leakyMoments[k] - b)
				scale := math.Max(math.Abs(a), math.Abs(b))
				if bound := gminMultiple*shift + residualTol*scale; math.Abs(a-b) > bound {
					return fmt.Errorf("seed %d node %s m%d: tree %g vs deck %g, residual %g over bound %g (Gmin shift %g)",
						seed, s.Name(), k, a, b, math.Abs(a-b), bound, shift)
				}
			}
		}
		return nil
	}
	// The seeds below 20,000 whose high-impedance trees exceed a fixed
	// 1e-4 relative tolerance through Gmin leakage alone; with Gmin at 0
	// their residuals fall below 1.2e-7.
	for _, seed := range []int64{3377, 8435, 13884, 14986, 15079, 15132, 16354} {
		if err := check(seed); err != nil {
			t.Error(err)
		}
	}
	f := func(seed int64) bool {
		err := check(seed)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMomentsCoupledCircuit: the descriptor path also covers circuits the
// tree recursion cannot express — here a mutually coupled pair. Moment 0
// of the driven line's output is 1; the quiet victim's DC gain is 0 and
// its first coupling contribution appears at m2.
func TestMomentsCoupledCircuit(t *testing.T) {
	d := circuit.NewDeck("pair")
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddVSource("V1", "in", "0", sources.Step{V0: 0, V1: 1})
	mustOK(err)
	_, err = d.AddResistor("Ra", "in", "am", 30)
	mustOK(err)
	_, err = d.AddInductor("La", "am", "ao", 2e-9)
	mustOK(err)
	_, err = d.AddCapacitor("Ca", "ao", "0", 50e-15)
	mustOK(err)
	_, err = d.AddResistor("Rv", "0", "vm", 30)
	mustOK(err)
	_, err = d.AddInductor("Lv", "vm", "vo", 2e-9)
	mustOK(err)
	_, err = d.AddCapacitor("Cv", "vo", "0", 50e-15)
	mustOK(err)
	_, err = d.AddCoupling("K1", "La", "Lv", 0.4)
	mustOK(err)

	agg, _ := d.Lookup("ao")
	vic, _ := d.Lookup("vo")
	ma, err := Moments(d, agg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ma[0]-1) > 1e-9 {
		t.Fatalf("aggressor m0 = %g, want 1", ma[0])
	}
	if ma[1] >= 0 {
		t.Fatalf("aggressor m1 = %g, want negative", ma[1])
	}
	mv, err := Moments(d, vic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mv[0]) > 1e-9 {
		t.Fatalf("victim m0 = %g, want 0", mv[0])
	}
	if mv[2] == 0 {
		t.Fatal("victim m2 should be non-zero through the mutual inductance")
	}
}

func TestMomentsValidation(t *testing.T) {
	d := circuit.NewDeck("x")
	if _, err := d.AddVSource("V1", "a", "0", sources.DC{Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddResistor("R1", "a", "0", 10); err != nil {
		t.Fatal(err)
	}
	node, _ := d.Lookup("a")
	if _, err := Moments(d, node, -1); err == nil {
		t.Fatal("negative order must fail")
	}
	if _, err := Moments(d, circuit.Ground, 2); err == nil {
		t.Fatal("ground node must fail")
	}
	ms, err := Moments(d, node, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Node a is the source node: all moments beyond m0 vanish.
	if math.Abs(ms[0]-1) > 1e-9 || math.Abs(ms[1]) > 1e-20 {
		t.Fatalf("source-node moments = %v", ms)
	}
}
