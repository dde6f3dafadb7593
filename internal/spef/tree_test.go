package spef

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// treeFaults are single-fault nets, each with the message Net.Tree must
// report, plus nets with several faults of one kind whose message must
// name the first offender in file order.
var treeFaults = []struct {
	name, body, want string
}{
	{"no driver", "*CONN\n*I a I\n*RES\n1 a b 1\n", `net "n" has no driving pin`},
	{"two drivers", "*CONN\n*I a O\n*I b O\n*RES\n1 a b 1\n", `net "n" has 2 driving pins`},
	{"no parasitics", "*CONN\n*I a B\n", `net "n" has no parasitics`},
	{"loop", "*CONN\n*I a O\n*RES\n1 a b 1\n2 b c 1\n3 c a 1\n", `net "n" is not a tree: 3 resistive branches over 3 nodes`},
	{"parallel", "*CONN\n*I a O\n*RES\n1 a b 1\n2 a b 2\n", `net "n" is not a tree: 2 resistive branches over 2 nodes`},
	{"island", "*CONN\n*I a O\n*RES\n1 a b 1\n2 c d 1\n", `node "c" is not connected to the driver "a"`},
	{"floating cap", "*CONN\n*I a O\n*RES\n1 a b 1\n*CAP\n1 z 0.5\n", `capacitance at "z" is not connected`},
	{"self-loop", "*CONN\n*I a O\n*RES\n1 a a 1\n", `resistor 1 is a self-loop at "a"`},
	{"unmatched induc", "*CONN\n*I a O\n*RES\n1 a b 1\n*INDUC\n1 a c 1\n", `*INDUC between "a" and "c" has no matching *RES branch`},
	{"empty tree", "*CONN\n*I a O\n*CAP\n1 a 0\n", `net "n" produced an empty tree`},
	{"islands", "*CONN\n*I a O\n*RES\n1 a b 1\n2 e f 1\n3 c d 1\n4 g h 1\n", `node "e" is not connected`},
	{"floating caps", "*CONN\n*I a O\n*RES\n1 a b 1\n*CAP\n1 y 1\n2 b 1\n3 z 1\n4 x 1\n", `capacitance at "y" is not connected`},
	{"unmatched inducs", "*CONN\n*I a O\n*RES\n1 a b 1\n*INDUC\n1 a b 1\n2 d b 1\n3 a c 1\n4 e f 1\n", `*INDUC between "b" and "d"`},
	{"self-loops", "*CONN\n*I a O\n*RES\n1 a b 1\n2 c c 1\n3 b b 1\n", `resistor 2 is a self-loop at "c"`},
}

func mkNet(t testing.TB, body string) *Net {
	t.Helper()
	f, err := ParseString("*D_NET n 1\n" + body + "*END\n")
	if err != nil {
		t.Fatalf("setup parse: %v", err)
	}
	return f.Nets[0]
}

// sameTreeResult compares Net.Tree's outcome with the reference twin's:
// equal fingerprints and section order, or the same failure message.
func sameTreeResult(got *rlctree.Tree, gotErr error, want *rlctree.Tree, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("acceptance differs: Tree err=%v, reference err=%v", gotErr, wantErr)
	}
	if gotErr != nil {
		msg := gotErr.Error()
		if ge := new(guard.Error); errors.As(gotErr, &ge) {
			msg = ge.Err.Error()
		}
		if msg != wantErr.Error() {
			return fmt.Errorf("message %q, reference %q", msg, wantErr)
		}
		if strings.HasPrefix(msg, "spef: net ") && !errors.Is(gotErr, guard.ErrTopology) {
			return fmt.Errorf("class %q, want topology: %v", guard.ClassName(gotErr), gotErr)
		}
		return nil
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("fingerprints differ")
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d sections, reference %d", got.Len(), want.Len())
	}
	for i, s := range want.Sections() {
		if g := got.Sections()[i]; g.Name() != s.Name() || g.Index() != i {
			return fmt.Errorf("section %d is %q, reference %q", i, g.Name(), s.Name())
		}
	}
	if got.Gen() != 0 {
		return fmt.Errorf("a freshly built tree is at generation %d", got.Gen())
	}
	return nil
}

// TestTreeMatchesReference runs the fault table and seeded random nets —
// with driver capacitance, parallel *INDUC entries and shuffled entry
// order — through Net.Tree and the reference twin.
func TestTreeMatchesReference(t *testing.T) {
	check := func(name string, net *Net) {
		t.Helper()
		got, gerr := net.Tree(DefaultUnits)
		want, werr := refTree(net, DefaultUnits)
		if err := sameTreeResult(got, gerr, want, werr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, c := range treeFaults {
		check(c.name, mkNet(t, c.body))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		check(fmt.Sprintf("random net %d", i), mkNet(t, randomNetBody(rng, 1+rng.Intn(40), true)))
	}
}

// randomNetBody renders a random tree net: node 0 drives, node k hangs
// off a uniformly chosen earlier node, and every branch has a *RES and a
// *INDUC entry. With messy set, entries are shuffled, some *INDUC values
// are split across two entries and the driver may carry capacitance.
func randomNetBody(rng *rand.Rand, size int, messy bool) string {
	var b strings.Builder
	b.WriteString("*CONN\n*I n:0 O\n")
	parents := make([]int, size+1)
	for k := 1; k <= size; k++ {
		parents[k] = rng.Intn(k)
	}
	var caps, ress, inducs []string
	first := 1
	if messy && rng.Intn(2) == 0 {
		first = 0
	}
	for k := first; k <= size; k++ {
		caps = append(caps, fmt.Sprintf("n:%d %.6g", k, 0.005+rng.Float64()*0.05))
	}
	for k := 1; k <= size; k++ {
		a, z := fmt.Sprintf("n:%d", parents[k]), fmt.Sprintf("n:%d", k)
		if messy && rng.Intn(2) == 0 {
			a, z = z, a
		}
		ress = append(ress, fmt.Sprintf("%s %s %.6g", a, z, 1+rng.Float64()*40))
		l := 0.05 + rng.Float64()*0.5
		if messy && rng.Intn(4) == 0 {
			inducs = append(inducs, fmt.Sprintf("%s %s %.6g", z, a, l/3))
			l -= l / 3
		}
		inducs = append(inducs, fmt.Sprintf("%s %s %.6g", a, z, l))
	}
	if messy {
		for _, s := range [][]string{caps, ress, inducs} {
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		}
	}
	for _, sec := range []struct {
		label string
		lines []string
	}{{"*CAP", caps}, {"*RES", ress}, {"*INDUC", inducs}} {
		b.WriteString(sec.label + "\n")
		for i, line := range sec.lines {
			fmt.Fprintf(&b, "%d %s\n", i+1, line)
		}
	}
	return b.String()
}

// FuzzNetTree: for any parsed net, Net.Tree and the reference twin give
// equal fingerprints and section order, or both fail with the same
// message.
func FuzzNetTree(f *testing.F) {
	f.Add(sample)
	for _, c := range treeFaults {
		f.Add("*D_NET n 1\n" + c.body + "*END\n")
	}
	rng := rand.New(rand.NewSource(9))
	f.Add("*D_NET n 1\n" + randomNetBody(rng, 12, true) + "*END\n")
	f.Add("*D_NET n 1\n*CONN\n*I a O\n*RES\n1 a b -1\n2 c d 1\n*CAP\n1 a 1e308\n2 a 1e308\n*END\n")
	f.Add("*D_NET n 1\n*CONN\n*I a(drv) I\n*I a O\n*RES\n1 a a(drv) 1\n*CAP\n1 a 1\n*END\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := ParseLimits(strings.NewReader(input), guard.Limits{MaxNets: 8, MaxElements: 512})
		if err != nil {
			return
		}
		for _, net := range file.Nets {
			got, gerr := net.Tree(file.Units)
			want, werr := refTree(net, file.Units)
			if err := sameTreeResult(got, gerr, want, werr); err != nil {
				t.Fatalf("net %q: %v\ninput: %q", net.Name, err, input)
			}
		}
	})
}

// BenchmarkNetTree builds the tree of one 50-section net shaped like
// `chipflow -synth` nets, with the reference twin alongside for scale.
func BenchmarkNetTree(b *testing.B) {
	net := mkNet(b, randomNetBody(rand.New(rand.NewSource(1)), 50, false))
	for _, bc := range []struct {
		name  string
		build func(*Net, Units) (*rlctree.Tree, error)
	}{{"interned", (*Net).Tree}, {"reference", refTree}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.build(net, DefaultUnits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTreeWideFanoutMatchesReference: *INDUC entries between two hubs of
// growing fanout, split and unmatched, build the reference twin's tree or
// fail with its message.
func TestTreeWideFanoutMatchesReference(t *testing.T) {
	for _, fanout := range []int{7, 8, 30} {
		var b strings.Builder
		b.WriteString("*CONN\n*I hubA O\n*RES\n1 hubA hubB 3\n")
		for k := 0; k < fanout; k++ {
			fmt.Fprintf(&b, "%d hubA a%02d 1\n%d hubB b%02d 2\n", 2*k+2, fanout-k, 2*k+3, k)
		}
		b.WriteString("*INDUC\n1 hubB hubA 0.25\n2 a01 hubA 0.5\n3 hubA hubB 0.125\n")
		for _, tail := range []string{"", "4 hubB a01 1\n"} {
			net := mkNet(t, b.String()+tail)
			got, gerr := net.Tree(DefaultUnits)
			want, werr := refTree(net, DefaultUnits)
			if err := sameTreeResult(got, gerr, want, werr); err != nil {
				t.Fatalf("fanout %d, tail %q: %v", fanout, tail, err)
			}
		}
	}
}

// TestTreeConcurrentOnOneNet: Tree only reads its net, so goroutines may
// build trees from one net at once — a net from FromTree, and a parsed
// net edited by hand so that its entries no longer match their ids. Run
// it under -race; without -race it still checks that the edited net is
// left as it was.
func TestTreeConcurrentOnOneNet(t *testing.T) {
	parsed := mkNet(t, randomNetBody(rand.New(rand.NewSource(2)), 50, false))
	src, err := parsed.Tree(DefaultUnits)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromTree(src, "n", "drv", DefaultUnits)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Nets[0].hasIDs() {
		t.Fatal("FromTree built a net without node ids")
	}
	edited := mkNet(t, randomNetBody(rand.New(rand.NewSource(3)), 50, false))
	edited.Caps = append(edited.Caps, Cap{Node: edited.Ress[0].B, Value: 0.5})
	edited.Ress[1].Value *= 2
	if edited.hasIDs() {
		t.Fatal("setup: the edited net still carries matching ids")
	}
	before := slices.Clone(edited.nodes)
	for _, net := range []*Net{f.Nets[0], edited} {
		want, werr := refTree(net, DefaultUnits)
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					got, gerr := net.Tree(DefaultUnits)
					if errs[g] = sameTreeResult(got, gerr, want, werr); errs[g] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("net %q: %v", net.Name, err)
			}
		}
	}
	if !slices.Equal(edited.nodes, before) {
		t.Fatalf("Tree wrote the edited net's name table")
	}
	if edited.Caps[len(edited.Caps)-1].id != 0 {
		t.Fatalf("Tree wrote an id into the edited net")
	}
}
