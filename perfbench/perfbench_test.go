package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/opt"
	"eedtree/internal/rlctree"
	"eedtree/internal/timing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the launcher starts a workload process from it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !namePattern.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if !unitPattern.MatchString(m.Unit) {
				t.Errorf("metric %s has unit %q", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %s is listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json at the
// repository root names exactly the metrics the code reports, with the
// same units, and the workloads the code runs.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, code []metricSpec, file []struct{ Name, Unit, Better string }) {
		if len(code) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
			return
		}
		for i := range code {
			if code[i].Name != file[i].Name || code[i].Unit != file[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %s %s", kind, i, code[i], file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		ok   bool
		want float64
	}{
		{0, false, 0},
		{100, false, 0},
		{999, false, 0}, // rank 990: nine samples beyond
		{1000, true, 990},
		{1009, true, 999},
	} {
		got, ok := tailQuantile(sample(c.n), 0.99)
		if ok != c.ok || got != c.want {
			t.Errorf("p99 of %d samples = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if !c.ok && p99(sample(c.n)) != 0 {
			t.Errorf("p99 of %d samples reported", c.n)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func flip(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// testPop is a two-net serve population with its oracle.
func testPop(t *testing.T, write bool) *population {
	t.Helper()
	p := &population{write: write}
	for _, n := range []int{6, 12} {
		txt := renderTree(rand.New(rand.NewSource(int64(n))), n)
		tr, err := rlctree.ParseString(txt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := expectedNodes(tr)
		if err != nil {
			t.Fatal(err)
		}
		p.texts = append(p.texts, txt)
		p.sizes = append(p.sizes, n)
		p.fp0 = append(p.fp0, fpHex(tr))
		p.expect = append(p.expect, want)
	}
	return p
}

// TestFlippedBitRaisesErrorRatio corrupts one float bit in each kind of
// checked result and demands that the checker count a failed operation.
func TestFlippedBitRaisesErrorRatio(t *testing.T) {
	p := testPop(t, false)

	t.Run("serve-read", func(t *testing.T) {
		var tl tally
		op := serveOp{kind: opDelay, net: 1, node: 3, gotNet: p.fp0[1], gotNode: p.expect[1][3]}
		tl.attempted++
		p.checkRead(&tl, &op)
		if tl.failed != 0 {
			t.Fatalf("a correct reply failed: %v", tl.notes)
		}
		op.gotNode.Delay50 = flip(op.gotNode.Delay50)
		tl.attempted++
		p.checkRead(&tl, &op)
		if tl.failed != 1 || tl.errorRatio() != 0.5 {
			t.Fatalf("flipped delay: failed %d, error ratio %v", tl.failed, tl.errorRatio())
		}
		nodes := append([]eedsrv.NodeResult(nil), p.expect[0]...)
		z := flip(*nodes[2].Zeta)
		nodes[2].Zeta = &z
		aop := serveOp{kind: opAnalyze, net: 0, gotNet: p.fp0[0], gotNodes: nodes}
		p.checkRead(&tl, &aop)
		if tl.failed != 2 {
			t.Fatal("flipped zeta in an analyze reply was not counted")
		}
	})

	t.Run("serve-write", func(t *testing.T) {
		w := testPop(t, true)
		rep, _ := rlctree.ParseString(w.texts[0])
		if err := rep.Section("s2").SetC(42e-15); err != nil {
			t.Fatal(err)
		}
		want, _ := expectedNodes(rep)
		good := serveOp{kind: opEdit, net: 0, node: 4, edits: []editOp{{node: 2, elem: "C", value: 42e-15}},
			gotNet: fpHex(rep), gotNode: want[4]}
		bad := good
		bad.gotNode.Rise = flip(bad.gotNode.Rise)
		for _, c := range []struct {
			op     serveOp
			failed int64
		}{{good, 0}, {bad, 1}} {
			tl := tally{attempted: 1}
			if err := w.verifyWrite(&tl, []writeRecord{c.op.record()}); err != nil {
				t.Fatal(err)
			}
			if tl.failed != c.failed {
				t.Fatalf("edit reply: failed %d, want %d (%v)", tl.failed, c.failed, tl.notes)
			}
		}
	})

	t.Run("chip", func(t *testing.T) {
		a := engine.NetResult{Net: "n1", Summary: timing.NetSummary{Net: "n1", Sinks: 2, MaxDelay: 1e-11, AvgDelay: 8e-12, Stretch: 1.2}}
		b := a
		b.Summary.AvgDelay = flip(b.Summary.AvgDelay)
		if !sameNet(a, a) || sameNet(a, b) {
			t.Fatal("sameNet does not compare summaries bit for bit")
		}
	})

	t.Run("opt", func(t *testing.T) {
		p := opt.SizingProblem{Segments: 8, Model: opt.WireModel{RUnit: 40, CAreaUnit: 30e-15, CFringe: 10e-15, LUnit: 0.6e-9},
			WMin: 0.5, WMax: 4, RDriver: 100, CLoad: 50e-15}
		r, err := opt.OptimizeWidths(p, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if o := checkSizing(p, r); o.bad != "" {
			t.Fatalf("a correct result failed: %s", o.bad)
		}
		r.Delay = flip(r.Delay)
		if o := checkSizing(p, r); o.bad == "" {
			t.Fatal("flipped sizing delay passed")
		}
		tp := opt.TopologyProblem{Trunk: opt.LineSpec{R: 400, L: 6e-9, C: 3e-12, Sections: 6}, RSource: 150,
			StubRPerLen: 150, StubLPerLen: 1e-9, StubCPerLen: 0.05e-12, Lambda: 1e-12,
			Sinks: []opt.SinkSpec{{Name: "a", Pos: 0.3, CLoad: 50e-15}, {Name: "b", Pos: 1, CLoad: 200e-15}}}
		tr, err := opt.ExploreTopologies(tp)
		if err != nil {
			t.Fatal(err)
		}
		if o := checkTopology(tp, tr); o.bad != "" {
			t.Fatalf("a correct result failed: %s", o.bad)
		}
		tr.Cost = flip(tr.Cost)
		if o := checkTopology(tp, tr); o.bad == "" {
			t.Fatal("flipped topology cost passed")
		}
	})
}

func TestRenderersDeterministic(t *testing.T) {
	chip := func(seed int64) string {
		var b bytes.Buffer
		if _, err := renderChip(&b, 40, 10, seed); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if chip(3) != chip(3) || chip(3) == chip(4) {
		t.Error("chip renderer is not a function of its seed")
	}
	if !strings.Contains(chip(3), "*D_NET n39 ") {
		t.Error("chip render lacks its last net")
	}
	js := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, w := range []string{"serve-read", "serve-write"} {
		if js(renderServe(w, 5)) != js(renderServe(w, 5)) || js(renderServe(w, 5)) == js(renderServe(w, 6)) {
			t.Errorf("%s renderer is not a function of its seed", w)
		}
	}
	if js(renderOpt(5, 2)) != js(renderOpt(5, 2)) || js(renderOpt(5, 2)) == js(renderOpt(6, 2)) {
		t.Error("opt renderer is not a function of its seed")
	}
}

// TestRenderedInputsAreValid parses every rendered serve tree and solves
// nothing, but checks the trees the server will be sent are well formed.
func TestRenderedInputsAreValid(t *testing.T) {
	pop := renderServe("serve-write", 1)
	if len(pop.Register) <= engine.DefaultRegistryEntries {
		t.Errorf("registration pool of %d does not exceed the registry", len(pop.Register))
	}
	for _, txt := range append(pop.Nets, pop.Register[:16]...) {
		if _, err := rlctree.ParseString(txt); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(renderServe("serve-read", 1).Nets); n > engine.DefaultCacheEntries {
		t.Errorf("serve-read population of %d does not fit the result cache", n)
	}
}

// TestPeakRSSIsTheWorkloadsOwn raises this process's high-water mark well
// above what a small workload needs, then runs a workload through the
// launcher: the peak it reports must be its own process's, not this one's.
func TestPeakRSSIsTheWorkloadsOwn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload process")
	}
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	ballast := make([]byte, 160<<20)
	for i := range ballast {
		ballast[i] = byte(i)
	}
	parent := peakRSSMiB()
	if parent < 150 {
		t.Skipf("VmHWM unavailable or too low (%.0f MiB)", parent)
	}
	cfg := config{workload: "opt", seed: 1, seconds: 1}
	var err error
	if cfg.input, err = renderInput(cfg); err != nil {
		t.Fatal(err)
	}
	r, err := spawn(cfg, false, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"peak_rss_mib", "rss_p90_mib"} {
		if child := r.Metrics[name]; child <= 0 || child >= parent/2 {
			t.Errorf("workload %s %.1f MiB against the launcher's peak %.1f MiB", name, child, parent)
		}
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("workload attempted %d, failed %d", r.Attempted, r.Failed)
	}
	ballast[len(ballast)-1]++
}
