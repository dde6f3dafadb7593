package rlctree_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"eedtree/internal/incr"
	"eedtree/internal/rlctree"
)

// bulkTwin rebuilds t with FromArrays.
func bulkTwin(t *testing.T, src *rlctree.Tree) *rlctree.Tree {
	t.Helper()
	r, l, c, parent := src.Arrays()
	names := make([]string, src.Len())
	for i, s := range src.Sections() {
		names[i] = s.Name()
	}
	tr, err := rlctree.FromArrays(names, parent, r, l, c)
	if err != nil {
		t.Fatalf("FromArrays: %v", err)
	}
	return tr
}

// requireSameTree asserts equal fingerprints, bit-identical sums and the
// same parent/children links section by section.
func requireSameTree(t *testing.T, got, want *rlctree.Tree, when string) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprints differ", when)
	}
	g, w := got.ElmoreSums(), want.ElmoreSums()
	for i := range w.SR {
		if math.Float64bits(g.SR[i]) != math.Float64bits(w.SR[i]) ||
			math.Float64bits(g.SL[i]) != math.Float64bits(w.SL[i]) ||
			math.Float64bits(g.Ctot[i]) != math.Float64bits(w.Ctot[i]) {
			t.Fatalf("%s: sums differ at node %d", when, i)
		}
	}
	for i, ws := range want.Sections() {
		gs := got.Sections()[i]
		if gs.Index() != i || gs.Tree() != got || got.Section(ws.Name()) != gs {
			t.Fatalf("%s: section %d (%q) is not indexed in its tree", when, i, ws.Name())
		}
		if (gs.Parent() == nil) != (ws.Parent() == nil) ||
			gs.Parent() != nil && gs.Parent().Name() != ws.Parent().Name() {
			t.Fatalf("%s: section %q has a different parent", when, ws.Name())
		}
		if len(gs.Children()) != len(ws.Children()) {
			t.Fatalf("%s: section %q has %d children, twin %d", when, ws.Name(), len(gs.Children()), len(ws.Children()))
		}
		for k, ch := range ws.Children() {
			if gs.Children()[k].Name() != ch.Name() {
				t.Fatalf("%s: child %d of %q is %q, twin %q", when, k, ws.Name(), gs.Children()[k].Name(), ch.Name())
			}
		}
	}
}

func TestFromArraysMatchesAddSection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		want := rlctree.Random(rng, rlctree.RandomSpec{Sections: 1 + rng.Intn(80), ChainP: rng.Float64()})
		got := bulkTwin(t, want)
		requireSameTree(t, got, want, fmt.Sprintf("trial %d", trial))
		if got.Gen() != 0 {
			t.Fatalf("fresh tree at generation %d", got.Gen())
		}
		if recs, status := got.RecordsSince(0); status != rlctree.JournalOK || len(recs) != 0 {
			t.Fatalf("fresh tree journal: %d records, %v", len(recs), status)
		}
	}
	empty, err := rlctree.FromArrays(nil, nil, nil, nil, nil)
	if err != nil || empty.Len() != 0 || empty.Fingerprint() != rlctree.New().Fingerprint() {
		t.Fatalf("empty FromArrays: %v, %d sections", err, empty.Len())
	}
}

// TestFromArraysValidation: the same faults AddSection rejects, with its
// messages, plus the array-shape faults only FromArrays can see.
func TestFromArraysValidation(t *testing.T) {
	addErr := func(name string, r, l, c float64) string {
		tr := rlctree.New()
		tr.MustAddSection("a", nil, 1, 1, 1)
		_, err := tr.AddSection(name, nil, r, l, c)
		return err.Error()
	}
	for _, c := range []struct {
		name    string
		names   []string
		parent  []int32
		r, l, c []float64
		want    string
	}{
		{"empty name", []string{"a", ""}, []int32{-1, 0}, []float64{1, 1}, []float64{1, 1}, []float64{1, 1}, addErr("", 1, 1, 1)},
		{"duplicate", []string{"a", "b", "a"}, []int32{-1, 0, 1}, []float64{1, 1, 1}, []float64{1, 1, 1}, []float64{1, 1, 1}, addErr("a", 1, 1, 1)},
		{"negative R", []string{"a", "x"}, []int32{-1, 0}, []float64{1, -1}, []float64{1, 1}, []float64{1, 1}, addErr("x", -1, 1, 1)},
		{"NaN L", []string{"a", "x"}, []int32{-1, 0}, []float64{1, 1}, []float64{1, math.NaN()}, []float64{1, 1}, addErr("x", 1, math.NaN(), 1)},
		{"Inf C", []string{"a", "x"}, []int32{-1, -1}, []float64{1, 1}, []float64{1, 1}, []float64{1, math.Inf(1)}, addErr("x", 1, 1, math.Inf(1))},
		{"forward parent", []string{"a", "b"}, []int32{1, -1}, []float64{1, 1}, []float64{1, 1}, []float64{1, 1}, "parents must precede"},
		{"self parent", []string{"a"}, []int32{0}, []float64{1}, []float64{1}, []float64{1}, "parents must precede"},
		{"bad parent", []string{"a", "b"}, []int32{-1, -7}, []float64{1, 1}, []float64{1, 1}, []float64{1, 1}, "parents must precede"},
		{"short values", []string{"a", "b"}, []int32{-1, 0}, []float64{1, 1}, []float64{1}, []float64{1, 1}, "lengths differ"},
	} {
		_, err := rlctree.FromArrays(c.names, c.parent, c.r, c.l, c.c)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestFromArraysEditsMatchTwin applies the same value and structural
// edits to a FromArrays tree and its AddSection twin, each followed by an
// incr.State replaying its tree's journal, and compares fingerprints and
// sums after every edit. The bulk tree's children lists share one backing
// array, so an attach or split that appended in place would corrupt a
// sibling's list and show up here.
func TestFromArraysEditsMatchTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		twin := rlctree.Random(rng, rlctree.RandomSpec{Sections: 10 + rng.Intn(40), ChainP: 0.5 + rng.Float64()/2})
		bulk := bulkTwin(t, twin)
		trees := [2]*rlctree.Tree{bulk, twin}
		var states [2]*incr.State
		var gens [2]uint64
		for k, tr := range trees {
			st, err := incr.New(tr)
			if err != nil {
				t.Fatal(err)
			}
			states[k], gens[k] = st, tr.Gen()
		}
		var pool [2][]*rlctree.Tree
		for op := 0; op < 150; op++ {
			n := bulk.Len()
			i := rng.Intn(n)
			kind := rng.Intn(6)
			v := rng.Float64() * 40
			k2 := 2 + rng.Intn(3)
			name := fmt.Sprintf("t%d_op%d", trial, op)
			reattach := rng.Intn(2) == 0
			for k, tr := range trees {
				sec := tr.Sections()[i]
				var err error
				switch kind {
				case 0:
					err = sec.SetR(v)
				case 1:
					err = sec.SetC(v * 1e-15)
				case 2:
					_, err = tr.AttachLeaf(name, sec, v, v*1e-11, v*1e-15)
				case 3:
					_, err = tr.SplitSection(sec, k2)
				case 4:
					if i == 0 || n < 3 {
						continue
					}
					var sub *rlctree.Tree
					if sub, err = tr.Detach(sec); err == nil && reattach {
						pool[k] = append(pool[k], sub)
					}
				default:
					if len(pool[k]) == 0 {
						continue
					}
					sub := pool[k][len(pool[k])-1]
					pool[k] = pool[k][:len(pool[k])-1]
					_, err = tr.AttachSubtree(sec, sub)
				}
				if err != nil && kind != 3 { // a repeated split may collide on names
					t.Fatalf("trial %d op %d kind %d: %v", trial, op, kind, err)
				}
				recs, status := tr.RecordsSince(gens[k])
				if status != rlctree.JournalOK {
					t.Fatalf("trial %d op %d: journal %v", trial, op, status)
				}
				for _, rec := range recs {
					if err := states[k].ApplyRecord(rec); err != nil {
						t.Fatalf("trial %d op %d: ApplyRecord: %v", trial, op, err)
					}
				}
				gens[k] = tr.Gen()
			}
			when := fmt.Sprintf("trial %d op %d kind %d", trial, op, kind)
			requireSameTree(t, bulk, twin, when)
			a, b := states[0].Sums(), states[1].Sums()
			want := twin.ElmoreSums()
			for j := range want.SR {
				for _, s := range []rlctree.Sums{a, b} {
					if math.Float64bits(s.SR[j]) != math.Float64bits(want.SR[j]) ||
						math.Float64bits(s.SL[j]) != math.Float64bits(want.SL[j]) ||
						math.Float64bits(s.Ctot[j]) != math.Float64bits(want.Ctot[j]) {
						t.Fatalf("%s: replayed sums differ at node %d", when, j)
					}
				}
			}
		}
	}
}
