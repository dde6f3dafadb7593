// Package spef reads and writes a practical subset of the Standard
// Parasitic Exchange Format (SPEF, IEEE 1481) — the format timing flows
// use to hand extracted interconnect parasitics to delay calculators.
// Parsed nets convert to rlctree.Tree values, connecting the paper's delay
// model to industry netlists.
//
// Supported subset: the standard header directives, *NAME_MAP, and *D_NET
// sections with *CONN, *CAP (grounded capacitances), *RES, and — because
// this library models inductance — the *INDUC section emitted by RLC-aware
// extractors, holding branch self-inductances between the same node pairs
// as *RES. Coupling capacitances (two-node *CAP entries) identify coupled
// nets and are rejected with a clear error; reduce them to ground first.
package spef

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"eedtree/internal/guard"
	"eedtree/internal/intern"
)

// Units holds the multipliers that convert the file's numeric values to SI
// (seconds, farads, ohms, henries).
type Units struct {
	T, C, R, L float64
}

// DefaultUnits are used when a file omits unit directives: ns, pF, Ω, H.
var DefaultUnits = Units{T: 1e-9, C: 1e-12, R: 1, L: 1}

// ConnType distinguishes external port pins (*P) from internal cell pins
// (*I) in a *CONN section.
type ConnType byte

const (
	// ConnPort is a *P entry (chip-level port).
	ConnPort ConnType = 'P'
	// ConnPin is an *I entry (cell instance pin).
	ConnPin ConnType = 'I'
)

// Direction is a pin direction in a *CONN entry.
type Direction byte

const (
	// DirInput marks a load pin (I).
	DirInput Direction = 'I'
	// DirOutput marks the driving pin (O).
	DirOutput Direction = 'O'
	// DirBidir marks a bidirectional pin (B).
	DirBidir Direction = 'B'
)

// Conn is one *CONN entry.
type Conn struct {
	Type ConnType
	Pin  string
	Dir  Direction

	id int32 // Pin's node id in the owning net's name table
}

// Port is one *PORTS entry: a chip-level port and its direction. Any
// trailing attributes (*C coordinates, *S slews, *L loads) are ignored.
type Port struct {
	Name string
	Dir  Direction
}

// Cap is one grounded *CAP entry: capacitance at a net node.
type Cap struct {
	Node  string
	Value float64 // in file units

	id int32 // Node's id in the owning net's name table
}

// Branch is one *RES or *INDUC entry between two net nodes.
type Branch struct {
	A, B  string
	Value float64 // in file units

	a, b int32 // A's and B's ids in the owning net's name table
}

// Net is one *D_NET section.
type Net struct {
	Name     string
	TotalCap float64 // in file units, as stated on the *D_NET line
	Conns    []Conn
	Caps     []Cap
	Ress     []Branch
	Inducs   []Branch

	// nodes is the net's name table: every distinct node name, indexed by
	// the ids its entries carry. The parser assigns ids as it lexes, so
	// each name is hashed and allocated once per net; FromTree assigns
	// them too, and Tree numbers a copy of a net whose entries lack them
	// (see withIDs).
	nodes []string
}

// File is a parsed SPEF file.
type File struct {
	Header map[string]string // directive (without '*') → raw value
	Units  Units
	Ports  []Port
	Nets   []*Net

	nameMap map[string]string // "*1" → mapped name
}

// Net returns the net with the given name, or nil.
func (f *File) Net(name string) *Net {
	for _, n := range f.Nets {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// parseOp names this parser in typed errors.
const parseOp = "spef.Parse"

// section is the part of the file the parser is in.
type section uint8

const (
	secNone    section = iota
	secNameMap         // after *NAME_MAP
	secPorts           // after *PORTS
	secNet             // after *D_NET, before its first subsection
	secConn
	secCap
	secRes
	secInduc
)

type parser struct {
	sc       *bufio.Scanner
	line     int
	file     *File
	lim      guard.Limits
	elements int     // running count of *CONN/*CAP/*RES/*INDUC/*PORTS entries
	nets     int     // running count of *D_NET sections
	section  section // where the current line falls
	cur      *Net    // the *D_NET being assembled, nil between nets

	names intern.Table // node name → id in cur's name table
	buf   []byte       // a name-mapped node reference
}

// errf reports a syntax error at the current line with the
// guard.ErrParse class.
func (p *parser) errf(format string, args ...any) error {
	return guard.Newf(guard.ErrParse, parseOp, format, args...).WithLine(p.line)
}

// Parse reads a SPEF file under guard.DefaultLimits. Errors carry the
// guard taxonomy (guard.ErrParse for syntax, guard.ErrLimit for oversized
// input) with the offending line number.
func Parse(r io.Reader) (*File, error) {
	return ParseLimits(r, guard.Limits{})
}

// ParseLimits is Parse under explicit input limits (zero fields mean the
// defaults): MaxLineBytes bounds line length, MaxNets the number of
// *D_NET sections, and MaxElements the total parasitic entry count.
//
// Parse is the collecting form of Stream: both run the same grammar, so
// a file accepted by one is accepted by the other with identical values.
func ParseLimits(r io.Reader, lim guard.Limits) (*File, error) {
	s := StreamLimits(r, lim)
	for {
		n, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s.p.file.Nets = append(s.p.file.Nets, n)
	}
	return s.p.file, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// newParser builds the shared grammar state over r.
func newParser(r io.Reader, lim guard.Limits) *parser {
	lim = lim.WithDefaults()
	return &parser{
		sc: lim.NewScanner(r),
		file: &File{
			Header:  map[string]string{},
			Units:   DefaultUnits,
			nameMap: map[string]string{},
		},
		lim: lim,
	}
}

// nextNet advances the scan until one *D_NET section completes and
// returns it. It returns (nil, nil) at a clean end of input. Prologue
// state — header directives, *NAME_MAP, *PORTS — accumulates on p.file
// as a side effect.
func (p *parser) nextNet() (*Net, error) {
	for p.sc.Scan() {
		p.line++
		net, err := p.processLine(p.sc.Bytes())
		if err != nil {
			return nil, err
		}
		if net != nil {
			return net, nil
		}
	}
	if err := p.lim.ScanError(parseOp, p.line, p.sc.Err()); err != nil {
		return nil, err
	}
	if p.cur != nil {
		return nil, guard.Newf(guard.ErrParse, parseOp, "unterminated *D_NET %q (missing *END)", p.cur.Name)
	}
	return nil, nil
}

// The grammar is lexed in place: a line is split into fields that view
// the scanner's buffer, keywords match case-insensitively byte by byte,
// and the only strings made are the ones a File or Net keeps. Fields are
// separated by ASCII white space, and case folding is ASCII only: other
// bytes are name characters.

// isSpace marks the ASCII white-space bytes that separate fields.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the white-space separated fields of line to dst.
func appendFields(dst [][]byte, line []byte) [][]byte {
	for i := 0; i < len(line); {
		for i < len(line) && isSpace[line[i]] {
			i++
		}
		j := i
		for j < len(line) && !isSpace[line[j]] {
			j++
		}
		if j > i {
			dst = append(dst, line[i:j:j])
		}
		i = j
	}
	return dst
}

// trimSpace strips leading and trailing ASCII white space.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace[b[0]] {
		b = b[1:]
	}
	for len(b) > 0 && isSpace[b[len(b)-1]] {
		b = b[:len(b)-1]
	}
	return b
}

// upper folds an ASCII lower-case letter to upper case.
func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// is reports whether b spells the upper-case keyword kw in any case.
func is(b []byte, kw string) bool {
	if len(b) != len(kw) {
		return false
	}
	for i := range b {
		if upper(b[i]) != kw[i] {
			return false
		}
	}
	return true
}

// upperString returns b folded to upper case, as a string.
func upperString(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = upper(c)
	}
	return string(out)
}

// isNameMapIndex reports whether key has the *<integer> shape of a
// *NAME_MAP entry. Any other directive inside a NAME_MAP or PORTS section
// terminates the section instead of being swallowed as an entry, so that
// a *PORTS after *NAME_MAP, or a *DEFINE after *PORTS, keeps its meaning.
func isNameMapIndex(key []byte) bool {
	if len(key) < 2 || key[0] != '*' {
		return false
	}
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// processLine folds one input line into the parser state, returning the
// completed net when the line closes a *D_NET section.
func (p *parser) processLine(raw []byte) (*Net, error) {
	line := trimSpace(raw)
	if len(line) == 0 || len(line) >= 2 && line[0] == '/' && line[1] == '/' {
		return nil, nil
	}
	// The fields view the scanner's buffer; a data line's fields fit on
	// the stack.
	var stack [8][]byte
	fields := appendFields(stack[:0], line)
	key := fields[0]
	switch {
	case is(key, "*NAME_MAP"):
		p.section, p.cur = secNameMap, nil
	case is(key, "*PORTS"):
		p.section, p.cur = secPorts, nil
	case is(key, "*D_NET"):
		return nil, p.startNet(fields)
	case subsection(key) != secNone:
		if p.cur == nil {
			return nil, p.errf("%s outside a *D_NET", upperString(key))
		}
		p.section = subsection(key)
	case is(key, "*END"):
		net := p.cur
		p.cur, p.section = nil, secNone
		return net, nil
	case p.section == secNameMap && isNameMapIndex(key):
		if len(fields) != 2 {
			return nil, p.errf("name map entry needs an index and a name")
		}
		p.file.nameMap[string(key)] = string(fields[1])
	case key[0] == '*' && p.cur == nil && !(p.section == secPorts && isNameMapIndex(key)):
		// Header directive: *T_UNIT, *DESIGN, … — also terminates a
		// NAME_MAP or PORTS section.
		p.section = secNone
		if err := p.header(upperString(key[1:]), fields[1:]); err != nil {
			return nil, err
		}
	case p.section == secPorts && p.cur == nil:
		if err := p.portLine(fields); err != nil {
			return nil, err
		}
	case p.cur != nil:
		if err := p.netLine(p.cur, fields); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("unexpected line %q", line)
	}
	return nil, nil
}

// subsection returns the *D_NET subsection key opens, or secNone.
func subsection(key []byte) section {
	switch {
	case is(key, "*CONN"):
		return secConn
	case is(key, "*CAP"):
		return secCap
	case is(key, "*RES"):
		return secRes
	case is(key, "*INDUC"):
		return secInduc
	}
	return secNone
}

// startNet opens a *D_NET section with a fresh, pooled net and an empty
// name table.
func (p *parser) startNet(fields [][]byte) error {
	if len(fields) < 3 {
		return p.errf("*D_NET needs a name and total capacitance")
	}
	tc, err := parseFloat(fields[2])
	if err != nil {
		return p.errf("*D_NET total cap: %v", err)
	}
	p.cur = newNet()
	p.cur.Name, p.cur.TotalCap = p.mapName(fields[1]), tc
	p.section = secNet
	p.names.Reset(0)
	p.nets++
	return guard.CheckCount(parseOp, "net", p.nets, p.lim.MaxNets)
}

// portLine records one *PORTS entry: a port name, a direction, and
// ignored trailing attributes.
func (p *parser) portLine(fields [][]byte) error {
	p.elements++
	if err := guard.CheckCount(parseOp, "parasitic entry", p.elements, p.lim.MaxElements); err != nil {
		return err
	}
	if len(fields) < 2 {
		return p.errf("*PORTS entry needs a name and a direction")
	}
	dir := Direction(upper(fields[1][0]))
	switch dir {
	case DirInput, DirOutput, DirBidir:
	default:
		return p.errf("unknown port direction %q", fields[1])
	}
	p.file.Ports = append(p.file.Ports, Port{Name: string(p.mapRef(fields[0])), Dir: dir})
	return nil
}

// mapName resolves a name-map index like "*1" (the name of a *D_NET).
func (p *parser) mapName(b []byte) string {
	if mapped, ok := p.file.nameMap[string(b)]; ok {
		return mapped
	}
	return string(b)
}

// mapRef resolves the name-map prefix of a node reference like "*1:3".
// The result is ref itself when nothing maps, else a view of p.buf that
// is valid until the next call.
func (p *parser) mapRef(ref []byte) []byte {
	if len(ref) == 0 || ref[0] != '*' {
		return ref // name-map indices start with '*'
	}
	i := bytes.IndexByte(ref, ':')
	if i < 0 {
		i = len(ref)
	}
	mapped, ok := p.file.nameMap[string(ref[:i])]
	if !ok {
		return ref
	}
	p.buf = append(append(p.buf[:0], mapped...), ref[i:]...)
	return p.buf
}

// node resolves a node reference of the current net to its name and id:
// each distinct node costs one string per net.
func (p *parser) node(ref []byte) (string, int32) {
	name := p.mapRef(ref)
	id, seen := intern.ID(&p.names, p.cur.nodes, name)
	if !seen {
		p.cur.nodes = append(p.cur.nodes, string(name))
	}
	return p.cur.nodes[id], id
}

func (p *parser) header(key string, rest [][]byte) error {
	value := string(bytes.Join(rest, []byte(" ")))
	p.file.Header[key] = strings.Trim(value, `"`)
	switch key {
	case "T_UNIT", "C_UNIT", "R_UNIT", "L_UNIT":
		if len(rest) != 2 {
			return p.errf("*%s needs a scale and a unit", key)
		}
		scale, err := parseFloat(rest[0])
		if err != nil {
			return p.errf("*%s scale: %v", key, err)
		}
		mult, err := unitMultiplier(key, upperString(rest[1]))
		if err != nil {
			return p.errf("%v", err)
		}
		v := scale * mult
		switch key {
		case "T_UNIT":
			p.file.Units.T = v
		case "C_UNIT":
			p.file.Units.C = v
		case "R_UNIT":
			p.file.Units.R = v
		case "L_UNIT":
			p.file.Units.L = v
		}
	}
	return nil
}

// unitMultipliers maps the supported unit names to SI multipliers.
var unitMultipliers = map[string]float64{
	"S": 1, "NS": 1e-9, "PS": 1e-12, "US": 1e-6, "MS": 1e-3,
	"F": 1, "PF": 1e-12, "FF": 1e-15, "NF": 1e-9, "UF": 1e-6,
	"OHM": 1, "KOHM": 1e3, "MOHM": 1e6,
	"HENRY": 1, "MH": 1e-3, "UH": 1e-6, "NH": 1e-9, "PH": 1e-12,
}

func unitMultiplier(key, unit string) (float64, error) {
	if m, ok := unitMultipliers[unit]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("spef: unsupported unit %q for *%s", unit, key)
}

func (p *parser) netLine(net *Net, fields [][]byte) error {
	p.elements++
	if err := guard.CheckCount(parseOp, "parasitic entry", p.elements, p.lim.MaxElements); err != nil {
		return err
	}
	switch p.section {
	case secConn:
		if len(fields) < 3 {
			return p.errf("*CONN entry needs type, pin and direction")
		}
		var ct ConnType
		switch {
		case is(fields[0], "*P"):
			ct = ConnPort
		case is(fields[0], "*I"):
			ct = ConnPin
		default:
			return p.errf("unknown *CONN entry type %q", fields[0])
		}
		dir := Direction(upper(fields[2][0]))
		switch dir {
		case DirInput, DirOutput, DirBidir:
		default:
			return p.errf("unknown pin direction %q", fields[2])
		}
		pin, id := p.node(fields[1])
		net.Conns = append(net.Conns, Conn{Type: ct, Pin: pin, Dir: dir, id: id})
	case secCap:
		switch len(fields) {
		case 3:
			v, err := parseFloat(fields[2])
			if err != nil {
				return p.errf("*CAP value: %v", err)
			}
			node, id := p.node(fields[1])
			net.Caps = append(net.Caps, Cap{Node: node, Value: v, id: id})
		case 4:
			return p.errf("coupling capacitance (%s %s) not supported: reduce to ground first", fields[1], fields[2])
		default:
			return p.errf("*CAP entry needs index, node, value")
		}
	case secRes, secInduc:
		label := "RES"
		if p.section == secInduc {
			label = "INDUC"
		}
		if len(fields) != 4 {
			return p.errf("*%s entry needs index, two nodes and a value", label)
		}
		v, err := parseFloat(fields[3])
		if err != nil {
			return p.errf("*%s value: %v", label, err)
		}
		brs := &net.Ress
		if p.section == secInduc {
			brs = &net.Inducs
		}
		*brs = append(*brs, Branch{Value: v})
		br := &(*brs)[len(*brs)-1]
		br.A, br.a = p.node(fields[1])
		br.B, br.b = p.node(fields[2])
	default:
		return p.errf("data line outside a recognized section")
	}
	return nil
}
