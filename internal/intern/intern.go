// Package intern numbers the distinct names of one job — the node names
// of a SPEF net, the section names of a tree built in bulk — in order of
// first appearance. It hashes each name once, straight from the caller's
// bytes, and keeps no map: the names live with the caller, in a slice
// indexed by id, and a Table holds only their hashes.
//
// A Table is meant to be reused from job to job. It keeps the largest
// arrays it has grown, but Reset prepares and clears only the part the
// next job needs, so a job costs time in proportion to its own size
// however large an earlier job was, and a warm Table allocates nothing.
package intern

import "hash/maphash"

// Table maps the names of one job to dense ids. The zero value is ready
// after Reset.
type Table struct {
	slots  []int32  // 1 + the id of the name hashed to the slot; 0 when empty
	hashes []uint64 // the hash of each id's name, kept for growth
}

var seed = maphash.MakeSeed()

// Reset empties the table for a job of about n names; more may follow.
func (t *Table) Reset(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	t.slots = append(t.slots[:0], make([]int32, size)...)
	t.hashes = t.hashes[:0]
}

// ID returns the id of name among names — the names entered since Reset,
// in id order — and true. A name not among them is entered under id
// len(names) and ID returns that id and false; the caller must append the
// name to names before the next call.
func ID[K string | []byte](t *Table, names []string, name K) (int32, bool) {
	var h uint64
	if s, ok := any(name).(string); ok {
		h = maphash.String(seed, s)
	} else {
		h = maphash.Bytes(seed, []byte(name))
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && names[id] == string(name) {
			return id, true
		}
	}
	id := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	t.slots[i] = id + 1
	if 2*len(t.hashes) > len(t.slots) {
		t.grow()
	}
	return id, false
}

// grow doubles the table, keeping it at most half full.
func (t *Table) grow() {
	t.slots = append(t.slots[:0], make([]int32, 2*len(t.slots))...)
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}
