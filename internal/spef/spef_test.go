package spef

import (
	"errors"
	"math"
	"strings"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/guard"
)

const sample = `// extracted by testgen
*SPEF "IEEE 1481-1998"
*DESIGN "repro"
*DATE "2026-07-05"
*VENDOR "eedtree"
*PROGRAM "testgen"
*VERSION "1.0"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 OHM
*L_UNIT 1 NH

*NAME_MAP
*1 net_a
*2 drv:Z
*3 load1:A
*4 load2:A

*D_NET *1 0.25
*CONN
*I *2 O
*I *3 I
*I *4 I
*CAP
1 *1:1 0.05
2 *3 0.1
3 *4 0.1
*RES
1 *2 *1:1 10
2 *1:1 *3 25
3 *1:1 *4 25
*INDUC
1 *2 *1:1 0.5
2 *1:1 *3 1.25
3 *1:1 *4 1.25
*END
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header["DESIGN"] != "repro" {
		t.Fatalf("DESIGN = %q", f.Header["DESIGN"])
	}
	if f.Units.T != 1e-9 || f.Units.C != 1e-12 || f.Units.R != 1 || f.Units.L != 1e-9 {
		t.Fatalf("units = %+v", f.Units)
	}
	if len(f.Nets) != 1 {
		t.Fatalf("nets = %d", len(f.Nets))
	}
	net := f.Net("net_a")
	if net == nil {
		t.Fatal("net name map not applied")
	}
	if f.Net("nope") != nil {
		t.Fatal("unknown net must be nil")
	}
	if net.TotalCap != 0.25 {
		t.Fatalf("total cap = %g", net.TotalCap)
	}
	if len(net.Conns) != 3 || net.Conns[0].Pin != "drv:Z" || net.Conns[0].Dir != DirOutput {
		t.Fatalf("conns = %+v", net.Conns)
	}
	if len(net.Caps) != 3 || net.Caps[0].Node != "net_a:1" {
		t.Fatalf("caps = %+v", net.Caps)
	}
	if len(net.Ress) != 3 || len(net.Inducs) != 3 {
		t.Fatalf("branches = %d res, %d induc", len(net.Ress), len(net.Inducs))
	}
}

func TestTreeFromNet(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.Net("net_a").Tree(f.Units)
	if err != nil {
		t.Fatal(err)
	}
	// Driver drv:Z roots the tree; three sections (one per RES branch).
	if tree.Len() != 3 {
		t.Fatalf("sections = %d, want 3", tree.Len())
	}
	mid := tree.Section("net_a:1")
	if mid == nil || mid.Parent() != nil {
		t.Fatal("first section must hang off the input")
	}
	if mid.R() != 10 || math.Abs(mid.L()-0.5e-9) > 1e-21 || math.Abs(mid.C()-0.05e-12) > 1e-21 {
		t.Fatalf("mid section values (%g, %g, %g)", mid.R(), mid.L(), mid.C())
	}
	l1 := tree.Section("load1:A")
	if l1 == nil || l1.Parent() != mid {
		t.Fatal("load1 must hang off net_a:1")
	}
	if math.Abs(l1.C()-0.1e-12) > 1e-21 {
		t.Fatalf("load cap = %g", l1.C())
	}
	// Total capacitance in SI matches the declared total.
	if math.Abs(tree.TotalCap()-0.25e-12) > 1e-20 {
		t.Fatalf("total C = %g", tree.TotalCap())
	}
	// The tree is immediately analyzable.
	analyses, err := core.AnalyzeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyses {
		if !a.Model.Stable() || a.Delay50 <= 0 {
			t.Fatalf("node %s not analyzable: %+v", a.Section.Name(), a)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Format()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if back.Units != f.Units {
		t.Fatalf("units changed: %+v vs %+v", back.Units, f.Units)
	}
	bn, fn := back.Net("net_a"), f.Net("net_a")
	if bn == nil {
		t.Fatal("net lost in round trip")
	}
	if len(bn.Ress) != len(fn.Ress) || len(bn.Caps) != len(fn.Caps) || len(bn.Inducs) != len(fn.Inducs) {
		t.Fatal("branch counts changed")
	}
	// Trees built from both must agree exactly.
	t1, err := fn.Tree(f.Units)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := bn.Tree(back.Units)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Format() != t2.Format() {
		t.Fatalf("trees differ:\n%s\nvs\n%s", t1.Format(), t2.Format())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"dnet-short", "*D_NET x\n*END\n"},
		{"dnet-badcap", "*D_NET x abc\n*END\n"},
		{"cap-outside", "*CAP\n"},
		{"unterminated", "*D_NET x 1\n*CAP\n1 a 0.5\n"},
		{"badunit", "*T_UNIT 1 FURLONG\n"},
		{"badunit-short", "*T_UNIT 1\n"},
		{"badunit-scale", "*R_UNIT x OHM\n"},
		{"conn-short", "*D_NET x 1\n*CONN\n*I a\n*END\n"},
		{"conn-type", "*D_NET x 1\n*CONN\n*Q a I\n*END\n"},
		{"conn-dir", "*D_NET x 1\n*CONN\n*I a X\n*END\n"},
		{"cap-coupling", "*D_NET x 1\n*CAP\n1 a b 0.5\n*END\n"},
		{"cap-short", "*D_NET x 1\n*CAP\n1\n*END\n"},
		{"res-short", "*D_NET x 1\n*RES\n1 a b\n*END\n"},
		{"res-badval", "*D_NET x 1\n*RES\n1 a b xy\n*END\n"},
		{"cap-badval", "*D_NET x 1\n*CAP\n1 a xy\n*END\n"},
		{"namemap-short", "*NAME_MAP\n*1\n"},
		{"stray", "*D_NET x 1\nfoo bar\n*END\n"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.text); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestTreeErrors: every tree-build fault in treeFaults is a classified
// guard.ErrTopology error carrying the net name and the message text, and
// a net with several faults reports the same, first one on every call.
func TestTreeErrors(t *testing.T) {
	units := DefaultUnits
	for _, c := range treeFaults {
		net := mkNet(t, c.body)
		var first string
		for call := 0; call < 20; call++ {
			_, err := net.Tree(units)
			if err == nil {
				t.Fatalf("%s: Tree succeeded", c.name)
			}
			if !errors.Is(err, guard.ErrTopology) {
				t.Fatalf("%s: class %q, want topology: %v", c.name, guard.ClassName(err), err)
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), `"n"`) {
				t.Fatalf("%s: error %q does not say %q", c.name, err, c.want)
			}
			if call == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("%s: call %d reported %q, call 0 %q", c.name, call, err, first)
			}
		}
	}
	// Invalid units.
	if _, err := mkNet(t, "*CONN\n*I a O\n*RES\n1 a b 1\n").Tree(Units{}); err == nil {
		t.Error("invalid units must fail")
	}
	// Driver-node capacitance is preserved through an ideal junction.
	net := mkNet(t, "*CONN\n*I a O\n*RES\n1 a b 1\n*CAP\n1 a 0.5\n2 b 0.5\n")
	tree, err := net.Tree(units)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.TotalCap()-1e-12) > 1e-24 {
		t.Fatalf("driver cap lost: total C = %g", tree.TotalCap())
	}
	if tree.Section("a(drv)") == nil {
		t.Fatal("driver-cap junction missing")
	}
}

func TestHeaderPassThrough(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Format()
	for _, want := range []string{`*DESIGN "repro"`, "*T_UNIT 1 NS", "*D_NET net_a"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}
