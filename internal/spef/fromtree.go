package spef

import (
	"fmt"

	"eedtree/internal/rlctree"
)

// FromTree exports an RLC tree as a one-net SPEF file, closing the loop
// with Net.Tree: a tree exported and re-imported reproduces the same
// electrical network. The tree's input node becomes the driving pin
// driverPin (*CONN direction O); every leaf becomes a load pin; internal
// nodes are named after their sections. Values are written in the given
// units.
func FromTree(t *rlctree.Tree, netName, driverPin string, units Units) (*File, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("spef: cannot export an empty tree")
	}
	if netName == "" || driverPin == "" {
		return nil, fmt.Errorf("spef: net and driver pin names must be non-empty")
	}
	if units.R == 0 || units.C == 0 || units.L == 0 || units.T == 0 {
		return nil, fmt.Errorf("spef: invalid units %+v", units)
	}
	net := &Net{Name: netName}
	net.Conns = append(net.Conns, Conn{Type: ConnPin, Pin: driverPin, Dir: DirOutput})
	for _, s := range t.Sections() {
		if s.IsLeaf() {
			net.Conns = append(net.Conns, Conn{Type: ConnPin, Pin: s.Name(), Dir: DirInput})
		}
	}
	totalC := 0.0
	for _, s := range t.Sections() {
		from := driverPin
		if p := s.Parent(); p != nil {
			from = p.Name()
		}
		// A zero-resistance section cannot round-trip through *RES (the
		// importer treats branches as resistive); reject rather than
		// silently merge nodes.
		if s.R() == 0 && s.L() == 0 {
			return nil, fmt.Errorf("spef: section %q is an ideal short; SPEF has no zero-impedance branches", s.Name())
		}
		if s.R() == 0 {
			return nil, fmt.Errorf("spef: section %q has L without R; emit a small series resistance first", s.Name())
		}
		net.Ress = append(net.Ress, Branch{A: from, B: s.Name(), Value: s.R() / units.R})
		if s.L() > 0 {
			net.Inducs = append(net.Inducs, Branch{A: from, B: s.Name(), Value: s.L() / units.L})
		}
		if s.C() > 0 {
			net.Caps = append(net.Caps, Cap{Node: s.Name(), Value: s.C() / units.C})
			totalC += s.C() / units.C
		}
	}
	net.TotalCap = totalC
	net.assignIDs()
	f := &File{
		Header: map[string]string{
			"SPEF":   "IEEE 1481-1998",
			"DESIGN": netName,
		},
		Units:   units,
		Nets:    []*Net{net},
		nameMap: map[string]string{},
	}
	return f, nil
}
