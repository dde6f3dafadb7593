package spef

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"eedtree/internal/guard"
)

// refNetDiff compares a streamed net with the reference twin's: names,
// conns and bit-equal values. It also checks the streamed net's ids: each
// entry's id names its node, and the name table holds each name once.
func refNetDiff(got, want *Net) string {
	bits := math.Float64bits
	if got.Name != want.Name || bits(got.TotalCap) != bits(want.TotalCap) {
		return fmt.Sprintf("net %q total %v, reference %q total %v", got.Name, got.TotalCap, want.Name, want.TotalCap)
	}
	if len(got.Conns) != len(want.Conns) || len(got.Caps) != len(want.Caps) ||
		len(got.Ress) != len(want.Ress) || len(got.Inducs) != len(want.Inducs) {
		return fmt.Sprintf("net %q entry counts %d/%d/%d/%d, reference %d/%d/%d/%d", got.Name,
			len(got.Conns), len(got.Caps), len(got.Ress), len(got.Inducs),
			len(want.Conns), len(want.Caps), len(want.Ress), len(want.Inducs))
	}
	for i, c := range want.Conns {
		if g := got.Conns[i]; g.Type != c.Type || g.Pin != c.Pin || g.Dir != c.Dir {
			return fmt.Sprintf("conn %d %+v, reference %+v", i, g, c)
		}
	}
	for i, c := range want.Caps {
		if g := got.Caps[i]; g.Node != c.Node || bits(g.Value) != bits(c.Value) {
			return fmt.Sprintf("cap %d %+v, reference %+v", i, g, c)
		}
	}
	for k, brs := range [2][]Branch{want.Ress, want.Inducs} {
		for i, b := range brs {
			g := [2][]Branch{got.Ress, got.Inducs}[k][i]
			if g.A != b.A || g.B != b.B || bits(g.Value) != bits(b.Value) {
				return fmt.Sprintf("branch %d of section %d %+v, reference %+v", i, k, g, b)
			}
		}
	}
	if !got.hasIDs() {
		return fmt.Sprintf("net %q: an entry's id does not name its node", got.Name)
	}
	seen := map[string]bool{}
	for _, name := range got.nodes {
		if seen[name] {
			return fmt.Sprintf("net %q: node %q entered twice in the name table", got.Name, name)
		}
		seen[name] = true
	}
	return ""
}

// sameGuardError reports how two grammar errors differ in guard class,
// line number or message, or "" when they agree.
func sameGuardError(got, want error) string {
	if guard.ClassName(got) != guard.ClassName(want) || got.Error() != want.Error() {
		return fmt.Sprintf("error %v [%s], reference %v [%s]", got, guard.ClassName(got), want, guard.ClassName(want))
	}
	var ge, we *guard.Error
	if errors.As(got, &ge) != errors.As(want, &we) || ge != nil && ge.Line != we.Line {
		return fmt.Sprintf("error lines differ: %v, reference %v", got, want)
	}
	return ""
}

// FuzzStreamMatchesReference: on any input the byte grammar yields the
// reference twin's nets, header, units and ports, and rejects exactly the
// inputs the twin rejects, with the same guard class, line and message.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Add(sample)
	f.Add(samplePorts)
	f.Add("*PORTS\n*1 I\nout O\n*DEFINE inst1 \"sub\"\n")
	f.Add("*NAME_MAP\n*1 foo\n*2 foo:3\n*D_NET *1 1\n*conn\n*p *1 o\n*i *2 i\n*Res\n1 *1 foo:3 5\n2 *1:3 x 1\n*END\n")
	f.Add("*d_net n 1e-3\n*CAP\n1 a 0x1p-2\n2 b inf\n3 c 1e400\n*end\n")
	f.Add("*D_NET n\t1\r\n*CAP\r\n1\ta\v0.5\f\n*END\n*D_NET m 1\n*RES\n1 a b 1.5.\n*END\n")
	f.Add("*T_UNIT 1 ns\n*C_UNIT 1 ff\n*R_UNIT 1 kohm\n*L_UNIT 1 ph\n*DESIGN \"x\"\n*D_NET n 1\n*END\n")
	f.Add("*D_NET n 1\n*CAP\n1 a b 1\n*END\n")
	f.Add("*D_NET n 1\n*CAP\n1 a 1 2\n*END\n")
	f.Add("*D_NET n 1\n*CONN\n*X a O\n*END\n")
	rng := rand.New(rand.NewSource(3))
	f.Add("*D_NET n 1\n" + randomNetBody(rng, 30, true) + "*END\n")
	f.Fuzz(func(t *testing.T, input string) {
		lim := guard.Limits{MaxLineBytes: 512, MaxNets: 16, MaxElements: 512}
		want, werr := refParse(strings.NewReader(input), lim)
		s := StreamLimits(strings.NewReader(input), lim)
		var serr error
		got := 0
		for {
			n, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				serr = err
				break
			}
			if got >= len(want.Nets) {
				t.Fatalf("stream yielded net %d beyond the reference's %d\ninput: %q", got, len(want.Nets), input)
			}
			if d := refNetDiff(n, want.Nets[got]); d != "" {
				t.Fatalf("net %d: %s\ninput: %q", got, d, input)
			}
			got++
			s.Recycle(n)
		}
		if got != len(want.Nets) {
			t.Fatalf("stream yielded %d nets, reference %d\ninput: %q", got, len(want.Nets), input)
		}
		if (serr == nil) != (werr == nil) {
			t.Fatalf("acceptance differs: stream err=%v, reference err=%v\ninput: %q", serr, werr, input)
		}
		if serr != nil {
			if d := sameGuardError(serr, werr); d != "" {
				t.Fatalf("%s\ninput: %q", d, input)
			}
		}
		if !reflect.DeepEqual(s.Header(), want.Header) || !reflect.DeepEqual(s.Ports(), want.Ports) {
			t.Fatalf("prologue differs: header %q ports %+v, reference %q %+v\ninput: %q",
				s.Header(), s.Ports(), want.Header, want.Ports, input)
		}
		if u, w := s.Units(), want.Units; math.Float64bits(u.T) != math.Float64bits(w.T) ||
			math.Float64bits(u.C) != math.Float64bits(w.C) || math.Float64bits(u.R) != math.Float64bits(w.R) ||
			math.Float64bits(u.L) != math.Float64bits(w.L) {
			t.Fatalf("units %+v, reference %+v\ninput: %q", u, w, input)
		}
	})
}

// TestDirectiveAfterPortsEndsSection: a directive inside *PORTS that is
// not a name-map index ends the section and is read as a header
// directive, in the grammar and its twin alike; it used to become a port.
func TestDirectiveAfterPortsEndsSection(t *testing.T) {
	in := "*PORTS\n*1 I\nout O\n*DEFINE inst1 \"sub\"\n"
	want := []Port{{Name: "*1", Dir: DirInput}, {Name: "out", Dir: DirOutput}}
	for _, c := range []struct {
		name  string
		parse func() (*File, error)
	}{
		{"Parse", func() (*File, error) { return ParseString(in) }},
		{"reference", func() (*File, error) { return refParse(strings.NewReader(in), guard.Limits{}) }},
	} {
		f, err := c.parse()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(f.Ports, want) {
			t.Errorf("%s: ports %+v, want %+v", c.name, f.Ports, want)
		}
		if _, ok := f.Header["DEFINE"]; !ok {
			t.Errorf("%s: *DEFINE not read as a header directive; header %q", c.name, f.Header)
		}
	}
	// Port lines after the directive are outside any section.
	if _, err := ParseString(in + "clk B\n"); !errors.Is(err, guard.ErrParse) {
		t.Fatalf("port line after a header directive: error %v, want a parse error", err)
	}
}

// bytesPerRun runs f runs times after one warm-up call and returns the
// mean heap bytes allocated per call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// TestChipPathAllocations gates the two per-net layers of the chip path
// on absolute costs over a rendered 50-section net. Stream.Next makes
// the net's name and one string per distinct node and nothing else, in
// a steady state; Net.Tree allocates only the tree: the Tree, its
// section pointers, its Section block, its children block, its R/L/C
// block and its parent indices.
func TestChipPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		sections   = 50
		parseExtra = 2 // allocations Stream.Next may add per net beyond the strings
		treeAllocs = 6
	)
	body := randomNetBody(rand.New(rand.NewSource(1)), sections, false)
	const runs = 200
	in := strings.Repeat("*D_NET n 1\n"+body+"*END\n", runs+2)
	s := NewStream(strings.NewReader(in))
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	nameBytes := len(first.Name)
	note := func(name string) {
		if !distinct[name] {
			distinct[name] = true
			nameBytes += len(name)
		}
	}
	for _, c := range first.Conns {
		note(c.Pin)
	}
	for _, c := range first.Caps {
		note(c.Node)
	}
	for _, brs := range [][]Branch{first.Ress, first.Inducs} {
		for _, b := range brs {
			note(b.A)
			note(b.B)
		}
	}
	s.Recycle(first)

	allocs := testing.AllocsPerRun(runs, func() {
		n, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		s.Recycle(n)
	})
	t.Logf("Stream.Next: %.1f allocations per net with %d distinct nodes", allocs, len(distinct))
	if limit := float64(len(distinct) + 1 + parseExtra); allocs > limit {
		t.Errorf("Stream.Next: %.1f allocations per %d-node net, limit %.0f (one per name + %d)",
			allocs, len(distinct), limit, parseExtra)
	}

	net := mkNet(t, body)
	build := func() {
		if _, err := net.Tree(DefaultUnits); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(runs, build)
	bytes := bytesPerRun(runs, build)
	t.Logf("Net.Tree: %.1f allocations, %.0f bytes per %d-section net", allocs, bytes, sections)
	if allocs > treeAllocs {
		t.Errorf("Net.Tree: %.1f allocations per %d-section net, limit %d", allocs, sections, treeAllocs)
	}
	// A section costs a pointer, a Section, a child pointer, three values
	// and a parent index: 124 bytes on a 64-bit platform, plus the Tree.
	if limit := float64(128*sections + 512); bytes > limit {
		t.Errorf("Net.Tree: %.0f bytes per %d-section net, limit %.0f", bytes, sections, limit)
	}

	s = NewStream(strings.NewReader(in))
	bytes = bytesPerRun(runs, func() {
		n, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		s.Recycle(n)
	})
	t.Logf("Stream.Next: %.0f bytes per net holding %d name bytes", bytes, nameBytes)
	// Each name rounds up to at most twice its size in the allocator.
	if limit := float64(2*nameBytes + 256); bytes > limit {
		t.Errorf("Stream.Next: %.0f bytes per net holding %d name bytes, limit %.0f", bytes, nameBytes, limit)
	}
}

// BenchmarkStreamNet lexes 50-section nets shaped like `chipflow -synth`
// nets through Stream, one net per iteration, with the reference twin
// alongside for scale.
func BenchmarkStreamNet(b *testing.B) {
	body := "*D_NET n 1.5\n" + randomNetBody(rand.New(rand.NewSource(1)), 50, false) + "*END\n"
	const nets = 256
	in := strings.Repeat(body, nets)
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var s *Stream
		for i := 0; i < b.N; i++ {
			if i%nets == 0 {
				s = NewStream(strings.NewReader(in))
			}
			n, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			s.Recycle(n)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i += nets {
			if _, err := refParse(strings.NewReader(in), guard.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
