package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"eedtree/internal/core"
	"eedtree/internal/opt"
	"eedtree/internal/spef"
)

// Inputs are rendered from the seed alone, once per seed, by the launcher
// process before any workload process starts, and cached under
// .bench_build/inputs. The program only ever sees the rendered bytes, and
// rendering never runs inside a workload's timed region or its set-up.

const (
	chipNets         = 5000 // ~21 MiB of SPEF; one pipeline pass takes about a second
	chipMeanSections = 50   // as chipflow -synth N -sections 50
	chipWarmupNets   = 256  // set-up streams this prefix once before timing

	serveReadNets     = 48   // fits the 256-entry registry and the 64-entry result cache
	servePrivateNets  = 4    // per client, serve-write
	serveRegisterNets = 1024 // serve-write registration pool, larger than the registry
	serveMinSections  = 16
	serveMaxSections  = 1024
	registerMaxSecs   = 256

	optProblemsPerKind = 4 // per worker
	optSizingSweeps    = 3
)

// inputDir is where rendered inputs live, relative to the checkout root.
var inputDir = filepath.Join(".bench_build", "inputs")

// ensureInput renders name with render unless it is already cached, then
// prunes the renders matching pattern down to the keep newest.
func ensureInput(name, pattern string, keep int, render func(w io.Writer) error) (string, error) {
	path := filepath.Join(inputDir, name)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(inputDir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(inputDir, name+".tmp*")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = render(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("rendering %s: %w", name, err)
	}
	pruneInputs(pattern, keep)
	return path, nil
}

// pruneInputs keeps only the keep most recently written files whose name
// matches the glob pattern, so that a long series of seeds does not fill
// the disk.
func pruneInputs(pattern string, keep int) {
	matches, _ := filepath.Glob(filepath.Join(inputDir, pattern))
	type aged struct {
		path string
		mod  int64
	}
	var files []aged
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			files = append(files, aged{m, fi.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod > files[j].mod })
	for i := keep; i < len(files); i++ {
		os.Remove(files[i].path)
	}
}

// fmtF writes a float so that it parses back to the same bits.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---- chip ----------------------------------------------------------------

// chipDesc describes a rendered chip design.
type chipDesc struct {
	Nets        int     `json:"nets"`
	Seed        int64   `json:"seed"`
	Bytes       int64   `json:"bytes"`
	WarmupBytes int64   `json:"warmup_bytes"` // the first chipWarmupNets nets
	SectionsP10 float64 `json:"sections_p10"`
	SectionsP50 float64 `json:"sections_p50"`
	SectionsP90 float64 `json:"sections_p90"`
	SectionsMax float64 `json:"sections_max"`
	Sections    int64   `json:"sections"`
	// ZetaBelow1 is the share of nodes with damping ratio ζ < 1 (the
	// underdamped, inductance-dominated regime), over every tenth net.
	ZetaBelow1 float64 `json:"zeta_below_1_share"`
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// renderChip writes a synthetic SPEF design with the distribution and
// seed meaning of chipflow -synth nets -sections meanSections -seed seed:
// net sizes uniform in 1..2×mean−1 sections, node k hanging off a
// uniformly chosen earlier node, values in the same parasitic ranges, and
// the same bytes for the same seed.
func renderChip(w io.Writer, nets, meanSections int, seed int64) (chipDesc, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	d := chipDesc{Nets: nets, Seed: seed}
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"synth_%d_%d\"\n*DIVIDER /\n*DELIMITER :\n", nets, seed)
	bw.WriteString("*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n*L_UNIT 1 NH\n\n")
	rng := rand.New(rand.NewSource(seed))
	parents := make([]int, 0, 2*meanSections)
	hasChild := make([]bool, 0, 2*meanSections+1)
	sizes := make([]float64, 0, nets)
	for i := 0; i < nets; i++ {
		if i == chipWarmupNets {
			if err := bw.Flush(); err != nil {
				return d, err
			}
			d.WarmupBytes = cw.n
		}
		size := 1 + rng.Intn(2*meanSections-1)
		sizes = append(sizes, float64(size))
		d.Sections += int64(size)
		parents = parents[:0]
		hasChild = hasChild[:0]
		for k := 0; k <= size; k++ {
			hasChild = append(hasChild, false)
		}
		for k := 1; k <= size; k++ {
			p := rng.Intn(k)
			parents = append(parents, p)
			hasChild[p] = true
		}
		fmt.Fprintf(bw, "*D_NET n%d %.6g\n*CONN\n*I n%d:0 O\n", i, float64(size)*0.03, i)
		for k := 1; k <= size; k++ {
			if !hasChild[k] {
				fmt.Fprintf(bw, "*I n%d:%d I\n", i, k)
			}
		}
		bw.WriteString("*CAP\n")
		for k := 1; k <= size; k++ {
			fmt.Fprintf(bw, "%d n%d:%d %.6g\n", k, i, k, 0.005+rng.Float64()*0.05)
		}
		bw.WriteString("*RES\n")
		for k := 1; k <= size; k++ {
			fmt.Fprintf(bw, "%d n%d:%d n%d:%d %.6g\n", k, i, parents[k-1], i, k, 1+rng.Float64()*40)
		}
		bw.WriteString("*INDUC\n")
		for k := 1; k <= size; k++ {
			fmt.Fprintf(bw, "%d n%d:%d n%d:%d %.6g\n", k, i, parents[k-1], i, k, 0.05+rng.Float64()*0.5)
		}
		bw.WriteString("*END\n")
	}
	if err := bw.Flush(); err != nil {
		return d, err
	}
	d.Bytes = cw.n
	s := sortedCopy(sizes)
	d.SectionsP10 = quantileOf(s, 0.10)
	d.SectionsP50 = quantileOf(s, 0.50)
	d.SectionsP90 = quantileOf(s, 0.90)
	d.SectionsMax = s[len(s)-1]
	return d, nil
}

// quantileOf is the nearest-rank quantile of an ascending slice.
func quantileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// zetaShareOfSPEF measures the share of nodes with ζ < 1 over every
// tenth net of a rendered design.
func zetaShareOfSPEF(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	s := spef.StreamLimits(bufio.NewReaderSize(f, 1<<20), chipLimits())
	var under, total float64
	for i := 0; ; i++ {
		n, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if i%10 == 0 {
			t, err := n.Tree(s.Units())
			if err != nil {
				return 0, err
			}
			sums := t.ElmoreSums()
			for k := range sums.SR {
				m, err := core.FromSums(sums.SR[k], sums.SL[k])
				total++
				if err == nil && m.Zeta() < 1 {
					under++
				}
			}
		}
		s.Recycle(n)
	}
	return ratio(under, total), nil
}

// renderChipInput renders (or finds) the chip design for seed and returns
// its path and descriptor.
func renderChipInput(seed int64) (string, chipDesc, error) {
	var desc chipDesc
	name := fmt.Sprintf("chip-%d", seed)
	spefPath, err := ensureInput(name+".spef", "chip-*.spef", 4, func(w io.Writer) error {
		var err error
		desc, err = renderChip(w, chipNets, chipMeanSections, seed)
		return err
	})
	if err != nil {
		return "", desc, err
	}
	descPath := chipDescPath(spefPath)
	if b, err := os.ReadFile(descPath); err == nil && json.Unmarshal(b, &desc) == nil && desc.Nets == chipNets {
		return spefPath, desc, nil
	}
	if desc.Nets == 0 { // cached SPEF without a descriptor: re-derive it
		if desc, err = renderChip(io.Discard, chipNets, chipMeanSections, seed); err != nil {
			return "", desc, err
		}
	}
	if desc.ZetaBelow1, err = zetaShareOfSPEF(spefPath); err != nil {
		return "", desc, err
	}
	b, _ := json.Marshal(desc)
	if err := os.WriteFile(descPath, b, 0o644); err != nil {
		return "", desc, err
	}
	pruneInputs("chip-*.desc", 16)
	return spefPath, desc, nil
}

// ---- serve ---------------------------------------------------------------

// servePop is a rendered serve population in the rlctree text format.
type servePop struct {
	Seed int64 `json:"seed"`
	// Nets are the resident nets: the serve-read population, or the
	// serve-write private nets (servePrivateNets per client; net i
	// belongs to client i mod clients).
	Nets []string `json:"nets"`
	// Register is the serve-write registration pool.
	Register []string `json:"register,omitempty"`
}

// renderTree writes a random RLC tree of n sections named s0..s{n-1}:
// each section extends a uniformly chosen earlier one with probability
// 0.8 and otherwise hangs off the input, with R in [1, 100) Ω, L in
// [0.1, 10) nH and C in [1, 200) fF.
func renderTree(rng *rand.Rand, n int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		parent := "-"
		if k > 0 && rng.Float64() < 0.8 {
			parent = "s" + strconv.Itoa(rng.Intn(k))
		}
		r := 1 + rng.Float64()*99
		l := (0.1 + rng.Float64()*9.9) * 1e-9
		c := (1 + rng.Float64()*199) * 1e-15
		fmt.Fprintf(&b, "s%d %s %s %s %s\n", k, parent, fmtF(r), fmtF(l), fmtF(c))
	}
	return b.String()
}

// geomLadder is step i of n geometric steps from lo to hi. Input sizes
// follow fixed ladders and the seed draws only topologies and values, so
// that the work a run does is nearly the same for every seed and the
// spread between seeds measures the program, not the draw.
func geomLadder(lo, hi, i, n int) int {
	if n < 2 {
		return lo
	}
	f := float64(i) / float64(n-1)
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
}

// linLadder is step i of n even steps from lo to hi.
func linLadder(lo, hi, i, n int) int {
	if n < 2 {
		return lo
	}
	return lo + int(math.Round(float64((hi-lo)*i)/float64(n-1)))
}

func renderServe(workload string, seed int64) servePop {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(workload))))
	pop := servePop{Seed: seed}
	nets := serveReadNets
	if workload == "serve-write" {
		nets = 2 * servePrivateNets
	}
	for i := 0; i < nets; i++ {
		pop.Nets = append(pop.Nets, renderTree(rng, geomLadder(serveMinSections, serveMaxSections, i, nets)))
	}
	if workload == "serve-write" {
		for i := 0; i < serveRegisterNets; i++ {
			pop.Register = append(pop.Register, renderTree(rng, geomLadder(serveMinSections, registerMaxSecs, i, serveRegisterNets)))
		}
	}
	return pop
}

func renderServeInput(workload string, seed int64) (string, error) {
	return ensureInput(fmt.Sprintf("%s-%d.json", workload, seed), workload+"-*.json", 8, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(renderServe(workload, seed))
	})
}

// ---- opt -----------------------------------------------------------------

// optProblems is one seeded problem set: per worker, a queue that the
// worker solves in a fixed rotation sizing → repeater → topology.
type optProblems struct {
	Seed    int64                       `json:"seed"`
	Sizing  [][]opt.SizingProblem       `json:"sizing"`
	Repeat  [][]opt.TopoRepeaterProblem `json:"repeater"`
	Topo    [][]opt.TopologyProblem     `json:"topology"`
	Sweeps  int                         `json:"sizing_sweeps"`
	Workers int                         `json:"workers"`
}

func scale(rng *rand.Rand) float64 { return 0.7 + 0.7*rng.Float64() }

func renderOpt(seed int64, workers int) optProblems {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	ps := optProblems{Seed: seed, Sweeps: optSizingSweeps, Workers: workers}
	n := workers * optProblemsPerKind
	for w := 0; w < workers; w++ {
		var sz []opt.SizingProblem
		var rp []opt.TopoRepeaterProblem
		var tp []opt.TopologyProblem
		for i := 0; i < optProblemsPerKind; i++ {
			step := i*workers + w // workers' queues interleave on each ladder
			sz = append(sz, opt.SizingProblem{
				Segments: linLadder(32, 128, step, n),
				Model: opt.WireModel{
					RUnit:     40 * scale(rng),
					CAreaUnit: 30e-15 * scale(rng),
					CFringe:   10e-15 * scale(rng),
					LUnit:     0.6e-9 * scale(rng),
				},
				WMin: 0.5, WMax: 4,
				RDriver: 100 * scale(rng),
				CLoad:   50e-15 * scale(rng),
			})
			rp = append(rp, opt.TopoRepeaterProblem{
				Line:    opt.LineSpec{R: 600 * scale(rng), L: 8e-9 * scale(rng), C: 4e-12 * scale(rng), Sections: linLadder(64, 128, step, n)},
				Rep:     opt.Repeater{ROut: 500 * scale(rng), CIn: 12e-15 * scale(rng), TIntrinsic: 2e-12 * scale(rng)},
				RSource: 120 * scale(rng),
				CLoad:   60e-15 * scale(rng),
				MaxK:    2,
				SizeMin: 0.5, SizeMax: 100,
			})
			taps := linLadder(32, 64, step, n)
			nSinks := 8 + step%5
			var sinks []opt.SinkSpec
			for k := 0; k < nSinks; k++ {
				c := 50e-15 * scale(rng)
				if k == nSinks-1 {
					c = 200e-15 * scale(rng)
				}
				sinks = append(sinks, opt.SinkSpec{Name: fmt.Sprintf("s%d", k), Pos: float64(k+1) / float64(nSinks) * (0.9 + 0.1*rng.Float64()), CLoad: c})
			}
			tp = append(tp, opt.TopologyProblem{
				Trunk:       opt.LineSpec{R: 400 * scale(rng), L: 6e-9 * scale(rng), C: 3e-12 * scale(rng), Sections: taps},
				RSource:     150 * scale(rng),
				Sinks:       sinks,
				StubRPerLen: 150 * scale(rng),
				StubLPerLen: 1e-9 * scale(rng),
				StubCPerLen: 0.05e-12 * scale(rng),
				Lambda:      1e-12 * rng.Float64(),
				MaxPasses:   2,
			})
		}
		ps.Sizing = append(ps.Sizing, sz)
		ps.Repeat = append(ps.Repeat, rp)
		ps.Topo = append(ps.Topo, tp)
	}
	return ps
}

func renderOptInput(seed int64, workers int) (string, error) {
	return ensureInput(fmt.Sprintf("opt-%d-w%d.json", seed, workers), "opt-*.json", 8, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(renderOpt(seed, workers))
	})
}

// readJSON loads a rendered input.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// chipDescPath is where the descriptor of a rendered design is kept.
func chipDescPath(spefPath string) string { return strings.TrimSuffix(spefPath, ".spef") + ".desc" }
