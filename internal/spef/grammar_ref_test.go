package spef

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"eedtree/internal/guard"
)

// refParse is the reference twin of the SPEF grammar: the string-based
// parser the in-place byte lexer replaced, one Scanner.Text string and one
// strings.FieldsFunc slice per line and strconv.ParseFloat per value. It
// keeps the contract Stream must match — values, names, ports, units and
// error messages with their line numbers — and returns the nets completed
// before any error. Its entries carry no node ids.
func refParse(r io.Reader, lim guard.Limits) (*File, error) {
	lim = lim.WithDefaults()
	p := &refParser{
		sc:   lim.NewScanner(r),
		file: &File{Header: map[string]string{}, Units: DefaultUnits, nameMap: map[string]string{}},
		lim:  lim,
	}
	for p.sc.Scan() {
		p.line++
		net, err := p.processLine(p.sc.Text())
		if err != nil {
			return p.file, err
		}
		if net != nil {
			p.file.Nets = append(p.file.Nets, net)
		}
	}
	if err := p.lim.ScanError(parseOp, p.line, p.sc.Err()); err != nil {
		return p.file, err
	}
	if p.cur != nil {
		return p.file, guard.Newf(guard.ErrParse, parseOp, "unterminated *D_NET %q (missing *END)", p.cur.Name)
	}
	return p.file, nil
}

type refParser struct {
	sc       *bufio.Scanner
	line     int
	file     *File
	lim      guard.Limits
	elements int
	nets     int
	section  string // "", "NAME_MAP", "PORTS", or a *D_NET subsection label
	cur      *Net
}

func (p *refParser) errf(format string, args ...any) error {
	return guard.Newf(guard.ErrParse, parseOp, format, args...).WithLine(p.line)
}

// asciiSpace is the field separator of the grammar: ASCII white space.
func asciiSpace(r rune) bool { return r < 0x80 && isSpace[r] }

// asciiUpper folds ASCII letters to upper case and leaves other bytes.
func asciiUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

// refNameMapIndex is isNameMapIndex over a string.
func refNameMapIndex(key string) bool { return isNameMapIndex([]byte(key)) }

func (p *refParser) processLine(raw string) (*Net, error) {
	line := strings.TrimFunc(raw, asciiSpace)
	if line == "" || strings.HasPrefix(line, "//") {
		return nil, nil
	}
	fields := strings.FieldsFunc(line, asciiSpace)
	key := asciiUpper(fields[0])
	switch {
	case key == "*NAME_MAP":
		p.section, p.cur = "NAME_MAP", nil
	case key == "*PORTS":
		p.section, p.cur = "PORTS", nil
	case key == "*D_NET":
		if len(fields) < 3 {
			return nil, p.errf("*D_NET needs a name and total capacitance")
		}
		tc, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, p.errf("*D_NET total cap: %v", err)
		}
		p.cur = &Net{Name: p.mapName(fields[1]), TotalCap: tc}
		p.section = "D_NET"
		p.nets++
		if err := guard.CheckCount(parseOp, "net", p.nets, p.lim.MaxNets); err != nil {
			return nil, err
		}
	case key == "*CONN" || key == "*CAP" || key == "*RES" || key == "*INDUC":
		if p.cur == nil {
			return nil, p.errf("%s outside a *D_NET", key)
		}
		p.section = key[1:]
	case key == "*END":
		net := p.cur
		p.cur, p.section = nil, ""
		return net, nil
	case p.section == "NAME_MAP" && refNameMapIndex(key):
		if len(fields) != 2 {
			return nil, p.errf("name map entry needs an index and a name")
		}
		p.file.nameMap[fields[0]] = fields[1]
	case strings.HasPrefix(key, "*") && p.cur == nil && !(p.section == "PORTS" && refNameMapIndex(key)):
		p.section = ""
		if err := p.header(key[1:], fields[1:]); err != nil {
			return nil, err
		}
	case p.section == "PORTS" && p.cur == nil:
		if err := p.portLine(fields); err != nil {
			return nil, err
		}
	case p.cur != nil:
		if err := p.netLine(p.cur, p.section, fields); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("unexpected line %q", line)
	}
	return nil, nil
}

func (p *refParser) portLine(fields []string) error {
	p.elements++
	if err := guard.CheckCount(parseOp, "parasitic entry", p.elements, p.lim.MaxElements); err != nil {
		return err
	}
	if len(fields) < 2 {
		return p.errf("*PORTS entry needs a name and a direction")
	}
	dir := Direction(asciiUpper(fields[1])[0])
	switch dir {
	case DirInput, DirOutput, DirBidir:
	default:
		return p.errf("unknown port direction %q", fields[1])
	}
	p.file.Ports = append(p.file.Ports, Port{Name: p.mapNode(fields[0]), Dir: dir})
	return nil
}

func (p *refParser) mapName(s string) string {
	if mapped, ok := p.file.nameMap[s]; ok {
		return mapped
	}
	return s
}

func (p *refParser) mapNode(s string) string {
	if i := strings.IndexByte(s, ':'); i > 0 && strings.HasPrefix(s, "*") {
		return p.mapName(s[:i]) + s[i:]
	}
	return p.mapName(s)
}

func (p *refParser) header(key string, rest []string) error {
	value := strings.Join(rest, " ")
	p.file.Header[key] = strings.Trim(value, `"`)
	switch key {
	case "T_UNIT", "C_UNIT", "R_UNIT", "L_UNIT":
		if len(rest) != 2 {
			return p.errf("*%s needs a scale and a unit", key)
		}
		scale, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return p.errf("*%s scale: %v", key, err)
		}
		mult, err := unitMultiplier(key, asciiUpper(rest[1]))
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

func (p *refParser) netLine(net *Net, section string, fields []string) error {
	p.elements++
	if err := guard.CheckCount(parseOp, "parasitic entry", p.elements, p.lim.MaxElements); err != nil {
		return err
	}
	switch section {
	case "CONN":
		if len(fields) < 3 {
			return p.errf("*CONN entry needs type, pin and direction")
		}
		var ct ConnType
		switch asciiUpper(fields[0]) {
		case "*P":
			ct = ConnPort
		case "*I":
			ct = ConnPin
		default:
			return p.errf("unknown *CONN entry type %q", fields[0])
		}
		dir := Direction(asciiUpper(fields[2])[0])
		switch dir {
		case DirInput, DirOutput, DirBidir:
		default:
			return p.errf("unknown pin direction %q", fields[2])
		}
		net.Conns = append(net.Conns, Conn{Type: ct, Pin: p.mapNode(fields[1]), Dir: dir})
	case "CAP":
		switch len(fields) {
		case 3:
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return p.errf("*CAP value: %v", err)
			}
			net.Caps = append(net.Caps, Cap{Node: p.mapNode(fields[1]), Value: v})
		case 4:
			return p.errf("coupling capacitance (%s %s) not supported: reduce to ground first", fields[1], fields[2])
		default:
			return p.errf("*CAP entry needs index, node, value")
		}
	case "RES", "INDUC":
		if len(fields) != 4 {
			return p.errf("*%s entry needs index, two nodes and a value", section)
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return p.errf("*%s value: %v", section, err)
		}
		br := Branch{A: p.mapNode(fields[1]), B: p.mapNode(fields[2]), Value: v}
		if section == "RES" {
			net.Ress = append(net.Ress, br)
		} else {
			net.Inducs = append(net.Inducs, br)
		}
	default:
		return p.errf("data line outside a recognized section")
	}
	return nil
}
