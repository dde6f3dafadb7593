package engine

import (
	"testing"

	"eedtree/internal/faultinj"
	"eedtree/internal/rlctree"
)

// Twin benchmarks backing `make fault-check`: the armed twin runs the
// identical workload with a fault plan active whose only rule has p=0,
// so every Fire call walks the full decision path (plan load, rule
// lookup, arrival counter, hash draw) without ever firing.
// `bench2text -overhead` compares the two medians; a regression means
// the injection hooks leaked cost onto the hot path.

func benchSessionQuery(b *testing.B) {
	tree, err := rlctree.Line("b", 512, rlctree.SectionValues{R: 25, L: 1e-9, C: 50e-15})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(tree)
	if err != nil {
		b.Fatal(err)
	}
	secs := tree.Sections()
	sink := secs[len(secs)-1]
	mid := secs[len(secs)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.SetC(mid, 50e-15+float64(i%7)*1e-15); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.DelayAt(sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionQuery(b *testing.B) {
	faultinj.Deactivate()
	benchSessionQuery(b)
}

func BenchmarkSessionQueryFaultsArmed(b *testing.B) {
	plan, err := faultinj.Parse("seed=1;sess.numeric:p=0")
	if err != nil {
		b.Fatal(err)
	}
	faultinj.Activate(plan)
	defer faultinj.Deactivate()
	benchSessionQuery(b)
}
