package intern

import (
	"fmt"
	"testing"
)

// enter numbers words the way the callers do, through string keys or
// through byte keys, and returns the ids and the names entered.
func enter(t *Table, words []string, asBytes bool) ([]int32, []string) {
	var names []string
	ids := make([]int32, len(words))
	for i, w := range words {
		var id int32
		var seen bool
		if asBytes {
			id, seen = ID(t, names, []byte(w))
		} else {
			id, seen = ID(t, names, w)
		}
		if !seen {
			names = append(names, w)
		}
		ids[i] = id
	}
	return ids, names
}

// TestIDsDenseInFirstAppearanceOrder: ids count up from 0 in order of
// first appearance, repeats get their first id, and string and byte keys
// agree — across enough names to grow the table several times.
func TestIDsDenseInFirstAppearanceOrder(t *testing.T) {
	var words []string
	for i := 0; i < 1000; i++ {
		words = append(words, fmt.Sprintf("n%d", i%700), fmt.Sprintf("n%d", (i*7)%700))
	}
	want := map[string]int32{}
	for _, w := range words {
		if _, ok := want[w]; !ok {
			want[w] = int32(len(want))
		}
	}
	var tab Table
	for _, asBytes := range []bool{false, true} {
		tab.Reset(0)
		ids, names := enter(&tab, words, asBytes)
		if len(names) != len(want) {
			t.Fatalf("bytes=%v: %d distinct names, want %d", asBytes, len(names), len(want))
		}
		for i, w := range words {
			if ids[i] != want[w] || names[ids[i]] != w {
				t.Fatalf("bytes=%v: word %d %q got id %d, want %d", asBytes, i, w, ids[i], want[w])
			}
		}
	}
}

// TestResetSizesForTheJob: after a large job, Reset prepares and clears
// only what the next job needs, so small jobs stay cheap. (That a warm
// table allocates nothing is checked where it matters, by the SPEF
// parser's and tree builder's allocation gates.)
func TestResetSizesForTheJob(t *testing.T) {
	var big []string
	for i := 0; i < 100000; i++ {
		big = append(big, fmt.Sprint(i))
	}
	var tab Table
	tab.Reset(0)
	enter(&tab, big, false)
	tab.Reset(50)
	if len(tab.slots) != 128 || len(tab.hashes) != 0 {
		t.Fatalf("after Reset(50): %d slots, %d hashes; want 128 and 0", len(tab.slots), len(tab.hashes))
	}
	ids, names := enter(&tab, big[:50], true)
	if len(names) != 50 || ids[49] != 49 {
		t.Fatalf("small job after a large one: %d names, last id %d", len(names), ids[49])
	}
}
