package spef

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"eedtree/internal/guard"
	"eedtree/internal/intern"
	"eedtree/internal/rlctree"
)

// treeOp names the tree builder in typed errors.
const treeOp = "spef.Net.Tree"

// Tree converts a parsed net to a driver-rooted RLC tree in SI units,
// ready for the equivalent Elmore analysis.
//
// The driver node is the *CONN pin with direction O (or B when no O pin
// exists). Every *RES branch becomes one tree section whose series
// inductance is taken from the *INDUC branch between the same node pair
// (zero when absent); grounded *CAP values attach to the corresponding
// nodes. Sections are numbered in breadth-first order from the driver,
// visiting each node's neighbours in name order (parallel branches in
// file order). Capacitance at the driver node itself hangs on an ideal
// junction section named "<driver>(drv)".
//
// The parasitic network must be a tree rooted at the driver. Self-loops,
// unmatched *INDUC branches, disconnected nodes or capacitances, loops
// and missing or multiple drivers are guard.ErrTopology errors. When a
// net has several faults, the first check to fail reports the first
// offending entry in file order, so the message is deterministic.
//
// Tree does not modify the net, so goroutines may build trees from one
// net at once. A net whose entries were built or edited by hand, and so
// lack the parser's node ids, is numbered on a copy first.
func (n *Net) Tree(units Units) (*rlctree.Tree, error) {
	if units.R == 0 || units.C == 0 || units.L == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	if !n.hasIDs() {
		n = n.withIDs()
	}
	driver, err := n.driverPin()
	if err != nil {
		return nil, guard.New(guard.ErrTopology, treeOp, err)
	}
	b := builderPool.Get().(*treeBuilder)
	defer b.release()
	return b.build(n, driver.id, units)
}

// withIDs returns a copy of a net built or edited by hand whose entries
// carry the ids of their node names, leaving n untouched.
func (n *Net) withIDs() *Net {
	m := *n
	m.Conns, m.Caps = slices.Clone(n.Conns), slices.Clone(n.Caps)
	m.Ress, m.Inducs = slices.Clone(n.Ress), slices.Clone(n.Inducs)
	m.assignIDs()
	return &m
}

// assignIDs numbers the nodes of a net built by hand in order of first
// reference, through the table the parser uses, and writes the ids into
// its entries.
func (n *Net) assignIDs() {
	var names intern.Table
	names.Reset(0)
	n.nodes = nil // a fresh name table; a copied net must not append to the original's
	id := func(name string) int32 {
		id, seen := intern.ID(&names, n.nodes, name)
		if !seen {
			n.nodes = append(n.nodes, name)
		}
		return id
	}
	for i := range n.Conns {
		n.Conns[i].id = id(n.Conns[i].Pin)
	}
	for i := range n.Caps {
		n.Caps[i].id = id(n.Caps[i].Node)
	}
	for _, brs := range [2][]Branch{n.Ress, n.Inducs} {
		for i := range brs {
			brs[i].a, brs[i].b = id(brs[i].A), id(brs[i].B)
		}
	}
}

// hasIDs reports whether every entry's id names its node in the name
// table.
func (n *Net) hasIDs() bool {
	for i := range n.Conns {
		if !n.named(n.Conns[i].id, n.Conns[i].Pin) {
			return false
		}
	}
	for i := range n.Caps {
		if !n.named(n.Caps[i].id, n.Caps[i].Node) {
			return false
		}
	}
	for _, brs := range [2][]Branch{n.Ress, n.Inducs} {
		for i := range brs {
			if !n.named(brs[i].a, brs[i].A) || !n.named(brs[i].b, brs[i].B) {
				return false
			}
		}
	}
	return true
}

// named reports whether id names node name in the name table.
func (n *Net) named(id int32, name string) bool {
	return uint32(id) < uint32(len(n.nodes)) && n.nodes[id] == name
}

// treeBuilder holds the transient state of one Net.Tree call: the net's
// node ids renumbered to the tree's order, CSR adjacency over the *RES
// branches, and the breadth-first emission of the tree's arrays. Builders
// are pooled, so a streaming run allocates nothing beyond the trees
// themselves.
type treeBuilder struct {
	local []int32  // net node id → tree id, -1 until numbered
	nodes []string // tree id → node name; *RES nodes first, in order of appearance
	ends  []int32  // endpoint ids of *RES branch i at [2i], [2i+1]
	off   []int32  // node v's neighbours are adj[off[v]:off[v+1]]
	adj   []halfEdge
	lres  []float64 // summed *INDUC value per *RES branch, file units
	caps  []float64 // summed *CAP value per node id, file units
	sec   []int32   // section index per node: -1 the driver, unseen before the BFS reaches it
	queue []int32

	// The tree's arrays in section order, handed to rlctree.FromArrays.
	names   []string
	parent  []int32
	r, l, c []float64
}

// halfEdge is one direction of a *RES branch in the CSR adjacency.
type halfEdge struct {
	other int32 // neighbour node id
	res   int32 // index into Net.Ress
}

// unseen marks a node the BFS has not reached.
const unseen = -2

var builderPool = sync.Pool{New: func() any { return new(treeBuilder) }}

func (b *treeBuilder) release() {
	clear(b.nodes) // drop the name references
	clear(b.names)
	b.nodes, b.names = b.nodes[:0], b.names[:0]
	builderPool.Put(b)
}

// number returns the tree id of the net's node id, numbering the node
// on first sight.
func (b *treeBuilder) number(n *Net, id int32) int32 {
	if v := b.local[id]; v >= 0 {
		return v
	}
	v := int32(len(b.nodes))
	b.local[id] = v
	b.nodes = append(b.nodes, n.nodes[id])
	b.caps = append(b.caps, 0)
	return v
}

// topoErrf reports a net that is not a driver-rooted tree.
func topoErrf(format string, args ...any) error {
	return guard.Newf(guard.ErrTopology, treeOp, format, args...)
}

func (b *treeBuilder) build(n *Net, driver int32, units Units) (*rlctree.Tree, error) {
	// Renumber with an array pass over the net's ids: the *RES endpoints
	// first, so tree ids [0, nres) are exactly the nodes that have
	// branches.
	b.local = resize(b.local, len(n.nodes))
	for i := range b.local {
		b.local[i] = -1
	}
	b.caps = b.caps[:0]
	b.ends = b.ends[:0]
	for i, br := range n.Ress {
		if br.a == br.b {
			return nil, topoErrf("spef: net %q: resistor %d is a self-loop at %q", n.Name, i+1, br.A)
		}
		b.ends = append(b.ends, b.number(n, br.a), b.number(n, br.b))
	}
	nres := int32(len(b.nodes))
	b.buildCSR(int(nres))

	// Sum each *INDUC into every *RES branch between the same node pair.
	b.lres = resize(b.lres, len(n.Ress))
	clear(b.lres)
	for i := range n.Inducs {
		if ind := &n.Inducs[i]; !b.addInduc(ind) {
			lo, hi := ind.A, ind.B
			if hi < lo {
				lo, hi = hi, lo
			}
			return nil, topoErrf("spef: net %q: *INDUC between %q and %q has no matching *RES branch", n.Name, lo, hi)
		}
	}
	if len(n.Ress) == 0 && len(n.Caps) == 0 {
		return nil, topoErrf("spef: net %q has no parasitics", n.Name)
	}
	// Capacitance-only nodes, then the driver if still unseen, follow the
	// *RES nodes: ids >= nres have no branches.
	for _, c := range n.Caps {
		b.caps[b.number(n, c.id)] += c.Value
	}
	drv := b.number(n, driver)

	reached := b.emit(n, drv, nres, units)
	t, err := rlctree.FromArrays(b.names, b.parent, b.r, b.l, b.c)
	if err != nil {
		return nil, err
	}
	for v := int32(0); v < nres; v++ {
		if b.sec[v] == unseen {
			return nil, topoErrf("spef: net %q: node %q is not connected to the driver %q", n.Name, b.nodes[v], b.nodes[drv])
		}
	}
	for v := nres; v < int32(len(b.nodes)); v++ {
		if v != drv {
			return nil, topoErrf("spef: net %q: capacitance at %q is not connected to the driver", n.Name, b.nodes[v])
		}
	}
	// A tree over the driver and the reached nodes has exactly one
	// resistive branch per reached node; more means a resistive loop
	// (including parallel branches).
	if len(n.Ress) != reached {
		return nil, topoErrf("spef: net %q is not a tree: %d resistive branches over %d nodes",
			n.Name, len(n.Ress), reached+1)
	}
	if t.Len() == 0 {
		return nil, topoErrf("spef: net %q produced an empty tree", n.Name)
	}
	return t, nil
}

// buildCSR lays out the adjacency of nodes [0, nodes) from b.ends, each
// neighbour range sorted by name with ties kept in file order.
func (b *treeBuilder) buildCSR(nodes int) {
	// Count degrees into off[v+2], prefix-sum so off[v+1] is v's start,
	// then fill by advancing off[v+1]; afterwards off[v] is v's start.
	b.off = resize(b.off, nodes+2)
	clear(b.off)
	for _, v := range b.ends {
		b.off[v+2]++
	}
	for v := 2; v < len(b.off); v++ {
		b.off[v] += b.off[v-1]
	}
	b.adj = resize(b.adj, len(b.ends))
	for i := 0; i < len(b.ends); i += 2 {
		a, z, res := b.ends[i], b.ends[i+1], int32(i/2)
		b.adj[b.off[a+1]] = halfEdge{z, res}
		b.off[a+1]++
		b.adj[b.off[z+1]] = halfEdge{a, res}
		b.off[z+1]++
	}
	b.off = b.off[:nodes+1]
	for v := 0; v < nodes; v++ {
		b.sortByName(b.adj[b.off[v]:b.off[v+1]])
	}
}

// sortByName stably orders a neighbour range by node name.
func (b *treeBuilder) sortByName(es []halfEdge) {
	slices.SortStableFunc(es, func(x, y halfEdge) int {
		return strings.Compare(b.nodes[x.other], b.nodes[y.other])
	})
}

// addInduc adds one *INDUC value to the inductance of every *RES branch
// between its two nodes and reports whether there was one. It binary
// searches the name-sorted neighbour range of the endpoint with fewer
// neighbours, where the branches to the other endpoint are adjacent.
func (b *treeBuilder) addInduc(ind *Branch) bool {
	u, w := b.local[ind.a], b.local[ind.b]
	if u < 0 || w < 0 {
		return false // only *RES nodes are numbered yet
	}
	if b.off[u+1]-b.off[u] > b.off[w+1]-b.off[w] {
		u, w = w, u
	}
	es := b.adj[b.off[u]:b.off[u+1]]
	k, _ := slices.BinarySearchFunc(es, b.nodes[w], func(e halfEdge, name string) int {
		return strings.Compare(b.nodes[e.other], name)
	})
	found := false
	for ; k < len(es) && es[k].other == w; k++ {
		b.lres[es[k].res] += ind.Value
		found = true
	}
	return found
}

// emit walks the adjacency breadth-first from the driver and writes the
// tree's arrays in section order, returning how many nodes it reached
// besides the driver.
func (b *treeBuilder) emit(n *Net, drv, nres int32, units Units) int {
	b.names, b.parent = b.names[:0], b.parent[:0]
	b.r, b.l, b.c = b.r[:0], b.l[:0], b.c[:0]
	// Capacitance directly at the driver node: attach through an ideal
	// junction so totals are preserved (it does not affect the response
	// of an ideally driven tree).
	if c := b.caps[drv]; c > 0 {
		b.appendSection(b.nodes[drv]+"(drv)", -1, 0, 0, c*units.C)
	}
	b.sec = resize(b.sec, len(b.nodes))
	for v := range b.sec {
		b.sec[v] = unseen
	}
	b.sec[drv] = -1
	b.queue = append(b.queue[:0], drv)
	for qi := 0; qi < len(b.queue); qi++ {
		v := b.queue[qi]
		if v >= nres {
			continue // the driver has no branches
		}
		for _, e := range b.adj[b.off[v]:b.off[v+1]] {
			o := e.other
			if b.sec[o] != unseen {
				continue
			}
			b.sec[o] = int32(len(b.names))
			b.appendSection(b.nodes[o], b.sec[v],
				n.Ress[e.res].Value*units.R, b.lres[e.res]*units.L, b.caps[o]*units.C)
			b.queue = append(b.queue, o)
		}
	}
	return len(b.queue) - 1
}

func (b *treeBuilder) appendSection(name string, parent int32, r, l, c float64) {
	b.names = append(b.names, name)
	b.parent = append(b.parent, parent)
	b.r = append(b.r, r)
	b.l = append(b.l, l)
	b.c = append(b.c, c)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// driverPin returns the unique driving pin of the net.
func (n *Net) driverPin() (Conn, error) {
	var out, bidi Conn
	outs, bidis := 0, 0
	for _, c := range n.Conns {
		switch c.Dir {
		case DirOutput:
			if outs++; outs == 1 {
				out = c
			}
		case DirBidir:
			if bidis++; bidis == 1 {
				bidi = c
			}
		}
	}
	switch {
	case outs == 1:
		return out, nil
	case outs > 1:
		return Conn{}, fmt.Errorf("spef: net %q has %d driving pins; RLC trees have a single source", n.Name, outs)
	case bidis == 1:
		return bidi, nil
	default:
		return Conn{}, fmt.Errorf("spef: net %q has no driving pin (*CONN direction O)", n.Name)
	}
}
