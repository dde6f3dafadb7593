package rlctree

import (
	"fmt"
	"math"
)

// This file is the mutation API of a tree: in-place element edits with
// generation counting and a bounded edit journal. The paper's whole point
// is that the summations S_R and S_L are recursively maintainable, so a
// synthesis loop that perturbs a few element values should not rebuild the
// tree (or re-run the full two-pass sums) per candidate. The journal is
// what lets a consumer that snapshotted the tree at generation g — e.g. an
// engine.Session holding an incr.State — catch up by replaying exactly the
// mutations in (g, Gen()] instead of resynchronizing from scratch.
//
// Since the structural-edit API (structural.go) the journal is typed:
// structural mutations (attach, detach, split) append replayable
// structural records next to the element edits, so a consumer
// (incr.State.ApplyRecord, fed by RecordsSince) catches up across topology
// changes too.

// Elem identifies which element value of a section an Edit changed.
type Elem uint8

const (
	// ElemR is the series resistance of a section.
	ElemR Elem = iota
	// ElemL is the series inductance of a section.
	ElemL
	// ElemC is the node-to-ground capacitance of a section.
	ElemC
)

// String returns "R", "L" or "C".
func (e Elem) String() string {
	switch e {
	case ElemR:
		return "R"
	case ElemL:
		return "L"
	case ElemC:
		return "C"
	}
	return fmt.Sprintf("Elem(%d)", uint8(e))
}

// Edit records one element-value change: section Index had Elem changed
// from Old to New. Edits are replayable: applying New to the element
// reproduces the post-edit tree exactly (values are never transformed).
type Edit struct {
	Index int
	Elem  Elem
	Old   float64
	New   float64
}

// RecordKind discriminates the journal record types.
type RecordKind uint8

const (
	// RecordValue is one element edit (SetR/SetL/SetC).
	RecordValue RecordKind = iota
	// RecordAttach is an attach of Count sections (AddSection/AttachLeaf
	// appends one, AttachSubtree appends a whole re-homed subtree).
	RecordAttach
	// RecordDetach is the removal of a subtree (Detach).
	RecordDetach
	// RecordSplit is the in-place split of one section into Count equal
	// subsections (SplitSection).
	RecordSplit
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecordValue:
		return "value"
	case RecordAttach:
		return "attach"
	case RecordDetach:
		return "detach"
	case RecordSplit:
		return "split"
	}
	return fmt.Sprintf("RecordKind(%d)", uint8(k))
}

// Record is one replayable journal entry; Kind selects which fields are
// meaningful. Replaying records in order onto a snapshot of the tree
// reproduces the current tree exactly — element values bit for bit and
// topology index for index (the incr.State.ApplyRecord contract).
type Record struct {
	Kind RecordKind

	// RecordValue: the element edit.
	Edit Edit

	// RecordAttach: Count sections were appended at indices
	// [Index, Index+Count). For Count == 1 the parent index and element
	// values are inline (Parent, R, L, C — no allocation per AddSection);
	// larger attaches carry per-section parents and values in Multi.
	//
	// RecordDetach: Index is the detached subtree root's old index; Multi
	// holds the sorted old indices that were removed (the remaining
	// sections were compacted preserving relative order).
	//
	// RecordSplit: the section at Index was split into Count equal
	// subsections occupying [Index, Index+Count), the original section
	// keeping the last slot; later sections shifted up by Count-1.
	Index   int
	Count   int
	Parent  int32
	R, L, C float64

	Multi *MultiRecord
}

// MultiRecord carries the variable-size payload of multi-section
// structural records.
type MultiRecord struct {
	// Attach: parent index (in the post-attach tree) and element values
	// per attached section, in attach (ascending index) order. A parent of
	// -1 means the input node.
	Parents []int32
	R, L, C []float64
	// Detach: sorted old indices removed from the tree.
	Removed []int32
}

// JournalStatus reports whether — and if not, why not — a history window
// is replayable.
type JournalStatus uint8

const (
	// JournalOK: the returned records are the complete history since the
	// requested generation.
	JournalOK JournalStatus = iota
	// JournalTrimmed: the journal's bounded window no longer reaches back
	// to the requested generation.
	JournalTrimmed
	// JournalFuture: the requested generation is ahead of the tree — the
	// caller's snapshot cannot have come from this tree's timeline.
	JournalFuture
)

// String names the status for resync-cause reporting.
func (s JournalStatus) String() string {
	switch s {
	case JournalOK:
		return "ok"
	case JournalTrimmed:
		return "trimmed window"
	case JournalFuture:
		return "future generation"
	}
	return fmt.Sprintf("JournalStatus(%d)", uint8(s))
}

// journalCap bounds the retained edit journal. When the journal grows past
// the cap its oldest half is dropped; consumers whose snapshot predates the
// retained window fall back to a full resynchronization (RecordsSince
// reports JournalTrimmed). The cap comfortably covers an
// optimizer's inner-loop burst between queries while bounding memory on
// very long edit streams.
const journalCap = 4096

// Gen returns the tree's generation: a counter bumped by every mutation,
// structural (AddSection, AttachSubtree, Detach, SplitSection) or element
// edit (SetR/SetL/SetC). Two calls returning the same value bracket an
// unchanged tree, which is also the condition under which the cached
// Fingerprint is reused.
func (t *Tree) Gen() uint64 { return t.gen }

// StructuralSince reports whether any structural mutation happened after
// generation gen — the honest resync-cause signal for consumers whose
// history window was lost (a trimmed journal cannot say what it dropped,
// but the tree remembers when its topology last changed).
func (t *Tree) StructuralSince(gen uint64) bool { return t.lastStructGen > gen }

// bumpOpaque records a mutation that is not replayable at all — a tree
// consumed by AttachSubtree loses its content entirely, so its history is
// cleared and consumers must resynchronize (and will find the tree empty).
func (t *Tree) bumpOpaque() {
	t.gen++
	t.journal = t.journal[:0]
	t.journalBase = t.gen
	t.lastStructGen = t.gen
	t.invalidateFingerprint()
}

// appendRecord journals one mutation, trimming the oldest half of the
// journal when the cap is exceeded.
func (t *Tree) appendRecord(rec Record) {
	t.gen++
	if len(t.journal) >= journalCap {
		drop := len(t.journal) / 2
		n := copy(t.journal, t.journal[drop:])
		clear(t.journal[n:])
		t.journal = t.journal[:n]
		t.journalBase += uint64(drop)
	}
	t.journal = append(t.journal, rec)
	t.invalidateFingerprint()
}

// recordEdit appends an element edit to the journal.
func (t *Tree) recordEdit(e Edit) {
	t.appendRecord(Record{Kind: RecordValue, Edit: e})
}

// recordStructural appends a structural record and remembers the
// generation for StructuralSince.
func (t *Tree) recordStructural(rec Record) {
	t.appendRecord(rec)
	t.lastStructGen = t.gen
}

// RecordsSince returns the typed journal records — element edits and
// structural changes alike — applied after generation gen, in order, and
// JournalOK when that history is complete. JournalTrimmed or JournalFuture
// mean the consumer must resynchronize from the tree itself (the trimmed
// case distinguishes cause via StructuralSince). The returned slice
// aliases the journal: it is valid until the next mutation and must not be
// modified.
func (t *Tree) RecordsSince(gen uint64) ([]Record, JournalStatus) {
	if gen == t.gen {
		return nil, JournalOK
	}
	if gen > t.gen {
		return nil, JournalFuture
	}
	if gen < t.journalBase {
		return nil, JournalTrimmed
	}
	return t.journal[gen-t.journalBase:], JournalOK
}

// setElem validates and applies one element edit. A write of the value
// already stored (== comparison, so writing -0 over +0 is a no-op and the
// stored bits never change silently) does not bump the generation.
func (s *Section) setElem(elem Elem, arr []float64, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("rlctree: section %q: invalid %s = %g", s.name, elem, v)
	}
	old := arr[s.index]
	if v == old {
		return nil
	}
	arr[s.index] = v
	s.tree.recordEdit(Edit{Index: s.index, Elem: elem, Old: old, New: v})
	return nil
}

// SetR changes the section's series resistance in place. The value must be
// non-negative and finite. The edit bumps the tree's generation, is
// recorded in the edit journal, and invalidates the cached fingerprint.
func (s *Section) SetR(v float64) error { return s.setElem(ElemR, s.tree.r, v) }

// SetL changes the section's series inductance in place; same contract as
// SetR.
func (s *Section) SetL(v float64) error { return s.setElem(ElemL, s.tree.l, v) }

// SetC changes the section's node capacitance in place; same contract as
// SetR.
func (s *Section) SetC(v float64) error { return s.setElem(ElemC, s.tree.c, v) }

// Arrays returns copies of the tree's flat structure-of-arrays layout:
// element values r, l, c and parent indices (-1 for sections attached to
// the input node), all indexed by section index. Ascending index order is
// a valid top-down topological order. This is the snapshot the incremental
// sums kernel (internal/incr) is built from.
func (t *Tree) Arrays() (r, l, c []float64, parent []int32) {
	r = append([]float64(nil), t.r...)
	l = append([]float64(nil), t.l...)
	c = append([]float64(nil), t.c...)
	parent = append([]int32(nil), t.parentIdx...)
	return r, l, c, parent
}
