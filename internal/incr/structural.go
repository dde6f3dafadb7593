package incr

import (
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// This file extends the kernel across structural edits. The observation is
// the same one that makes element edits cheap: the summations are path
// accumulations over Ctot, and a structural change — attach a subtree,
// detach one, split a section in place — perturbs Ctot on exactly one
// input→node path. So:
//
//   - attach folds the new subtree's Ctot bottom-up within the appended
//     index range (O(|subtree|)) and refolds Ctot along path(parent)
//     (O(depth)); the new nodes' S_R/S_L seed from the parent's path sums
//     through the ordinary lazy query path;
//   - detach un-folds symmetrically: drop the removed range, refold Ctot
//     along path(former parent);
//   - split recomputes the k subsection Ctots from the preserved child
//     fold and refolds the path above.
//
// The bit-identity contract carries over unchanged: no stored sum ever
// receives an additive delta. Every affected Ctot is recomputed through
// the same child-descending/own-C-last fold as the from-scratch pass, the
// index-order invariants of rlctree's structural ops guarantee the fold
// order at untouched nodes is undisturbed, and S_R/S_L are marked stale so
// queries re-derive them in from-scratch order. After ApplyRecord the
// state is bit-identical to New on the post-edit tree.

// ApplyRecord replays one typed journal record (rlctree.Tree.RecordsSince)
// — element edit or structural change — folding it into the live state in
// O(depth + |affected sections|). Records must be applied in journal
// order; an error means the record stream does not match the state (the
// caller should resynchronize with New).
func (s *State) ApplyRecord(rec rlctree.Record) error {
	switch rec.Kind {
	case rlctree.RecordValue:
		switch e := rec.Edit; e.Elem {
		case rlctree.ElemR:
			return s.SetR(e.Index, e.New)
		case rlctree.ElemL:
			return s.SetL(e.Index, e.New)
		case rlctree.ElemC:
			return s.SetC(e.Index, e.New)
		}
		return guard.Newf(guard.ErrInternal, "incr", "unknown edit element %d", rec.Edit.Elem)
	case rlctree.RecordAttach:
		return s.applyAttach(rec)
	case rlctree.RecordDetach:
		return s.applyDetach(rec)
	case rlctree.RecordSplit:
		return s.applySplit(rec)
	}
	return guard.Newf(guard.ErrInternal, "incr", "unknown record kind %d", rec.Kind)
}

// applyAttach appends the attached sections — rec describes Count sections
// at [Index, Index+Count) with parents inside the new range or at the
// attach point — computes their Ctot bottom-up in from-scratch order, and
// refolds Ctot along the attach parent's path.
func (s *State) applyAttach(rec rlctree.Record) error {
	start, n := rec.Index, rec.Count
	if start != len(s.r) || n < 1 {
		return guard.Newf(guard.ErrTopology, "incr",
			"attach record at %d (count %d) does not extend state of %d sections", start, n, len(s.r))
	}
	attachParent := int32(-1)
	for i := 0; i < n; i++ {
		var p int32
		var r, l, c float64
		if rec.Multi != nil {
			p, r, l, c = rec.Multi.Parents[i], rec.Multi.R[i], rec.Multi.L[i], rec.Multi.C[i]
		} else {
			p, r, l, c = rec.Parent, rec.R, rec.L, rec.C
		}
		if int(p) >= start+i || p < -1 {
			return guard.Newf(guard.ErrTopology, "incr", "attach record parent %d out of order", p)
		}
		if p < int32(start) {
			// A root of the attached subtree: all roots share the attach
			// parent (-1 = the input node).
			attachParent = p
		}
		idx := int32(start + i)
		s.parent = append(s.parent, p)
		s.r = append(s.r, r)
		s.l = append(s.l, l)
		s.c = append(s.c, c)
		s.ctot = append(s.ctot, 0)
		s.sr = append(s.sr, 0)
		s.sl = append(s.sl, 0)
		s.childHead = append(s.childHead, -1)
		s.childNext = append(s.childNext, -1)
		if p >= 0 {
			// Ascending push-to-head keeps every child list in descending
			// index order, new children ahead of older smaller-index ones —
			// exactly the list New would build for the post-attach tree.
			s.childNext[idx] = s.childHead[p]
			s.childHead[p] = idx
		}
	}
	// Ctot of the new range, in the exact from-scratch bottom-up order:
	// children (all inside the range) fold in descending index order, the
	// node's own C last.
	for j := start + n - 1; j >= start; j-- {
		s.ctot[j] += s.c[j]
		if p := s.parent[j]; p >= int32(start) {
			s.ctot[p] += s.ctot[j]
		}
	}
	// The attach parent's path gains the subtree's capacitance.
	s.refoldPath(attachParent)
	s.srslValid = false
	s.stats.Attaches++
	return nil
}

// applyDetach removes the recorded index set — a full subtree, so the
// survivors' parents all survive — compacting the state in relative order,
// and refolds Ctot along the former parent's path. A detach of a
// contiguous index suffix (the common case for optimizer undo) is a pure
// truncation.
func (s *State) applyDetach(rec rlctree.Record) error {
	if rec.Multi == nil || len(rec.Multi.Removed) == 0 {
		return guard.Newf(guard.ErrTopology, "incr", "detach record carries no removed set")
	}
	removed := rec.Multi.Removed
	n := len(s.r)
	root := int32(rec.Index)
	if int(root) >= n || int(removed[len(removed)-1]) >= n || len(removed) >= n {
		return guard.Newf(guard.ErrTopology, "incr", "detach record out of range for %d sections", n)
	}
	p := s.parent[root]

	if k := len(removed); int(removed[0])+k == n {
		// Suffix fast path: unlink the subtree root from its parent's child
		// list, then truncate every array. O(depth + fanout).
		if p >= 0 {
			if s.childHead[p] == root {
				s.childHead[p] = s.childNext[root]
			} else {
				for ch := s.childHead[p]; ch >= 0; ch = s.childNext[ch] {
					if s.childNext[ch] == root {
						s.childNext[ch] = s.childNext[root]
						break
					}
				}
			}
		}
		w := int(removed[0])
		s.parent = s.parent[:w]
		s.childHead = s.childHead[:w]
		s.childNext = s.childNext[:w]
		s.r, s.l, s.c = s.r[:w], s.l[:w], s.c[:w]
		s.ctot = s.ctot[:w]
		s.sr, s.sl = s.sr[:w], s.sl[:w]
	} else {
		// General case: compact in relative order. oldToNew doubles as the
		// removed marker (-1).
		oldToNew := make([]int32, n)
		ri := 0
		w := int32(0)
		for i := 0; i < n; i++ {
			if ri < len(removed) && removed[ri] == int32(i) {
				oldToNew[i] = -1
				ri++
				continue
			}
			oldToNew[i] = w
			w++
		}
		out := int32(0)
		var newP int32
		for i := 0; i < n; i++ {
			if oldToNew[i] < 0 {
				continue
			}
			if op := s.parent[i]; op >= 0 {
				// A survivor's parent survives (removal is subtree-closed).
				newP = oldToNew[op]
			} else {
				newP = -1
			}
			s.parent[out] = newP
			s.r[out], s.l[out], s.c[out] = s.r[i], s.l[i], s.c[i]
			s.ctot[out] = s.ctot[i]
			out++
		}
		s.parent = s.parent[:out]
		s.r, s.l, s.c = s.r[:out], s.l[:out], s.c[:out]
		s.ctot = s.ctot[:out]
		s.sr, s.sl = s.sr[:out], s.sl[:out]
		// Rebuild the adjacency lists for the compacted index space.
		s.childHead = s.childHead[:out]
		s.childNext = s.childNext[:out]
		for i := range s.childHead {
			s.childHead[i] = -1
			s.childNext[i] = -1
		}
		for i := int32(0); i < out; i++ {
			if pp := s.parent[i]; pp >= 0 {
				s.childNext[i] = s.childHead[pp]
				s.childHead[pp] = i
			}
		}
		if p >= 0 {
			p = oldToNew[p]
		}
	}
	// The former parent's path loses the subtree's capacitance.
	s.refoldPath(p)
	s.srslValid = false
	s.stats.Detaches++
	return nil
}

// applySplit replaces the section at rec.Index with Count equal
// subsections in place, the original keeping the last slot (and its
// children), later sections shifting up — mirroring
// rlctree.Tree.SplitSection index for index. The divided element values
// are recomputed here from the state's own arrays with the same division,
// so their bits match the tree's.
func (s *State) applySplit(rec rlctree.Record) error {
	x, k := rec.Index, rec.Count
	if x < 0 || x >= len(s.r) || k < 2 {
		return guard.Newf(guard.ErrTopology, "incr",
			"split record (%d into %d) out of range for %d sections", x, k, len(s.r))
	}
	m := int32(k - 1)
	kk := float64(k)
	rr, ll, cc := s.r[x]/kk, s.l[x]/kk, s.c[x]/kk

	// Remap parents across the shift: children of x follow it to the last
	// slot, everything above x moves up by m. x's own parent is < x and
	// unaffected.
	for i, p := range s.parent {
		switch {
		case int(p) == x:
			s.parent[i] = int32(x) + m
		case int(p) > x:
			s.parent[i] = p + m
		}
	}
	pOld := s.parent[x]

	growF := func(a []float64) []float64 {
		a = append(a, make([]float64, m)...)
		copy(a[x+int(m):], a[x:])
		return a
	}
	s.r, s.l, s.c = growF(s.r), growF(s.l), growF(s.c)
	s.ctot, s.sr, s.sl = growF(s.ctot), growF(s.sr), growF(s.sl)
	s.parent = append(s.parent, make([]int32, m)...)
	copy(s.parent[x+int(m):], s.parent[x:])
	for i := 0; i < k; i++ {
		s.r[x+i], s.l[x+i], s.c[x+i] = rr, ll, cc
		if i == 0 {
			s.parent[x] = pOld
		} else {
			s.parent[x+i] = int32(x + i - 1)
		}
	}

	// Rebuild adjacency for the shifted index space.
	n := len(s.r)
	s.childHead = s.childHead[:0]
	s.childNext = s.childNext[:0]
	for i := 0; i < n; i++ {
		s.childHead = append(s.childHead, -1)
		s.childNext = append(s.childNext, -1)
	}
	for i := 0; i < n; i++ {
		if p := s.parent[i]; p >= 0 {
			s.childNext[i] = s.childHead[p]
			s.childHead[p] = int32(i)
		}
	}

	// Ctot of the k subsections, bottom-up in from-scratch fold order: the
	// last slot folds the original section's (shifted, unchanged) children,
	// each upstream subsection folds its single child; own C last.
	last := x + int(m)
	acc := 0.0
	for ch := s.childHead[last]; ch >= 0; ch = s.childNext[ch] {
		acc += s.ctot[ch]
	}
	s.ctot[last] = acc + cc
	for j := last - 1; j >= x; j-- {
		s.ctot[j] = s.ctot[j+1] + cc
	}
	s.refoldPath(pOld)
	s.srslValid = false
	s.stats.Splits++
	return nil
}
