package spef

import (
	"fmt"
	"sort"

	"eedtree/internal/rlctree"
)

// refTree is the reference twin of Net.Tree: a direct map-based
// construction with one AddSection per traversed branch. It keeps the
// contract Net.Tree must match bit for bit — section order, names, values
// and error messages — with faults reported in file order: the first
// unmatched *INDUC, the first disconnected node in order of appearance in
// *RES, the first floating *CAP, and neighbours visited in name order
// with ties (parallel branches) in file order.
func refTree(n *Net, units Units) (*rlctree.Tree, error) {
	if units.R == 0 || units.C == 0 || units.L == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	driver, err := n.driverPin()
	if err != nil {
		return nil, err
	}
	type edge struct {
		other string
		r, l  float64
	}
	induc := map[[2]string]float64{}
	for _, b := range n.Inducs {
		induc[pairKey(b.A, b.B)] += b.Value
	}
	adj := map[string][]edge{}
	for i, b := range n.Ress {
		if b.A == b.B {
			return nil, fmt.Errorf("spef: net %q: resistor %d is a self-loop at %q", n.Name, i+1, b.A)
		}
		l := induc[pairKey(b.A, b.B)]
		adj[b.A] = append(adj[b.A], edge{b.B, b.Value, l})
		adj[b.B] = append(adj[b.B], edge{b.A, b.Value, l})
	}
	for _, ind := range n.Inducs {
		key := pairKey(ind.A, ind.B)
		found := false
		for _, b := range n.Ress {
			if pairKey(b.A, b.B) == key {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("spef: net %q: *INDUC between %q and %q has no matching *RES branch", n.Name, key[0], key[1])
		}
	}
	caps := map[string]float64{}
	for _, c := range n.Caps {
		caps[c.Node] += c.Value
	}
	if len(adj) == 0 && len(caps) == 0 {
		return nil, fmt.Errorf("spef: net %q has no parasitics", n.Name)
	}

	t := rlctree.New()
	if c, ok := caps[driver]; ok && c > 0 {
		if _, err := t.AddSection(driver+"(drv)", nil, 0, 0, c*units.C); err != nil {
			return nil, err
		}
	}
	visited := map[string]bool{driver: true}
	type frontier struct {
		node    string
		section *rlctree.Section
	}
	queue := []frontier{{driver, nil}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		edges := adj[cur.node]
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].other < edges[j].other })
		for _, e := range edges {
			if visited[e.other] {
				continue
			}
			visited[e.other] = true
			s, err := t.AddSection(e.other, cur.section, e.r*units.R, e.l*units.L, caps[e.other]*units.C)
			if err != nil {
				return nil, err
			}
			queue = append(queue, frontier{e.other, s})
		}
	}
	for _, b := range n.Ress {
		for _, node := range [2]string{b.A, b.B} {
			if !visited[node] {
				return nil, fmt.Errorf("spef: net %q: node %q is not connected to the driver %q", n.Name, node, driver)
			}
		}
	}
	for _, c := range n.Caps {
		if c.Node != driver && !visited[c.Node] {
			return nil, fmt.Errorf("spef: net %q: capacitance at %q is not connected to the driver", n.Name, c.Node)
		}
	}
	if len(n.Ress) != len(visited)-1 {
		return nil, fmt.Errorf("spef: net %q is not a tree: %d resistive branches over %d nodes",
			n.Name, len(n.Ress), len(visited))
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("spef: net %q produced an empty tree", n.Name)
	}
	return t, nil
}

func pairKey(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}
