// Command chipflow runs the full-chip streaming pipeline: SPEF in, chip
// timing report out, with memory flat in the number of nets. It is the
// scale face of the equivalent Elmore model — per-net closed forms are
// cheap enough that a chip with millions of nets is bounded by parse
// bandwidth, and the streaming parser + bounded pipeline keeps the
// resident set at "a few nets", not "the design".
//
// Input is either a SPEF file (positional argument, "-" = stdin) or a
// synthetic design generated on the fly with -synth N: deterministic
// random RLC trees streamed straight into the parser through a pipe, so
// a 50M-section benchmark needs no 50M-section file on disk.
//
// -verify re-runs every net through the serial slow twin — Net.Tree →
// core.AnalyzeTreeCtx → timing.SummarizeNet, the exact functions the
// spef.Parse batch path calls (Parse is a drained Stream; the grammars
// are one) — and compares per-net results bit-for-bit via a running
// hash over math.Float64bits, so verification memory is flat too. The
// twin runs the full closed-form analysis while the pipeline runs the
// delay-only core.AnalyzeTreeDelays, so a match also proves the two
// sweeps agree on every value the report reads.
//
// Usage:
//
//	chipflow [flags] design.spef
//	chipflow -synth 1000000 -sections 50 -j 8 -topk 10 -out BENCH_PR8
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
)

func main() {
	os.Exit(realMain())
}

type config struct {
	synth    int
	sections int
	seed     int64
	workers  int
	topK     int
	depth    int
	verify   bool
	input    string
}

// chipRun is the machine-readable record of one chipflow execution —
// the BENCH_PR8.json shape.
type chipRun struct {
	Input      string               `json:"input"`
	SynthNets  int                  `json:"synth_nets,omitempty"`
	SynthSecs  int                  `json:"synth_sections_per_net,omitempty"`
	Seed       int64                `json:"seed,omitempty"`
	Verified   bool                 `json:"verified"`
	VerifyHash string               `json:"verify_hash,omitempty"`
	Stats      engine.PipelineStats `json:"stats"`
	Report     timing.ChipReport    `json:"report"`
}

func realMain() int {
	var cfg config
	flag.IntVar(&cfg.synth, "synth", 0, "generate a synthetic design with this many nets instead of reading a file")
	flag.IntVar(&cfg.sections, "sections", 50, "mean sections per synthetic net (-synth)")
	flag.Int64Var(&cfg.seed, "seed", 1, "synthetic design RNG seed (-synth)")
	flag.IntVar(&cfg.workers, "j", 0, "analyze workers (0 = one per CPU)")
	flag.IntVar(&cfg.topK, "topk", 10, "critical nets retained in the report")
	flag.IntVar(&cfg.depth, "depth", 0, "inter-stage queue depth (0 = 2x workers)")
	flag.BoolVar(&cfg.verify, "verify", false, "re-run every net through the serial slow twin and demand bit-identical results")
	maxNets := flag.Int("max-nets", 0, "abort past this many nets (0 = sized for the input)")
	maxElems := flag.Int("max-elements", 0, "abort past this many parasitic elements (0 = sized for the input)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	out := flag.String("out", "", `output path prefix; writes <out>.json and <out>.txt ("" = stdout only)`)
	metricsOut := flag.String("metrics", "", `write the metrics exposition to this file at exit ("-" = stdout, *.json = JSON form)`)
	traceOut := flag.String("trace", "", `write the pipeline span tree as JSON to this file at exit ("-" = stdout)`)
	failedOut := flag.String("failed", "", `write the failed-net wide events retained by the flight recorder as JSON to this file at exit ("-" = stdout)`)
	pprofAddr := flag.String("pprof", "", `serve net/http/pprof on this address (empty = no listener)`)
	assertRSSMB := flag.Int("assert-rss-mb", 0, "fail (exit 1) if peak RSS exceeds this many MiB (0 = no assertion)")
	assertNPS := flag.Float64("assert-nps", 0, "fail (exit 1) if throughput falls below this many nets/sec (0 = no assertion)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chipflow [flags] <design.spef | ->\n       chipflow -synth N [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch {
	case cfg.synth > 0 && flag.NArg() == 0:
	case cfg.synth == 0 && flag.NArg() == 1:
		cfg.input = flag.Arg(0)
	default:
		flag.Usage()
		return 2
	}
	if cfg.sections < 1 || cfg.topK < 0 || cfg.workers < 0 || cfg.depth < 0 || *timeout < 0 {
		flag.Usage()
		return 2
	}
	if *pprofAddr != "" {
		stop, addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chipflow: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "chipflow: pprof listening on http://%s/debug/pprof/\n", addr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace("chipflow")
		ctx = obs.WithTrace(ctx, trace)
	}

	run, err := execute(ctx, cfg, limitsFor(cfg, *maxNets, *maxElems))

	if trace != nil {
		trace.Finish()
		if derr := trace.DumpJSON(*traceOut); derr != nil {
			fmt.Fprintf(os.Stderr, "chipflow: -trace: %v\n", derr)
		}
	}
	if *metricsOut != "" {
		if derr := obs.Default().DumpPrometheus(*metricsOut); derr != nil {
			fmt.Fprintf(os.Stderr, "chipflow: -metrics: %v\n", derr)
		}
	}
	if *failedOut != "" {
		if derr := dumpFailedNets(*failedOut); derr != nil {
			fmt.Fprintf(os.Stderr, "chipflow: -failed: %v\n", derr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chipflow: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}

	text := renderText(run)
	fmt.Print(text)
	if *out != "" {
		js, jerr := json.MarshalIndent(run, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(*out+".json", append(js, '\n'), 0o644)
		}
		if jerr == nil {
			jerr = os.WriteFile(*out+".txt", []byte(text), 0o644)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "chipflow: -out: %v\n", jerr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "chipflow: wrote %s.json and %s.txt\n", *out, *out)
	}
	if *assertRSSMB > 0 && run.Stats.PeakRSS > uint64(*assertRSSMB)<<20 {
		fmt.Fprintf(os.Stderr, "chipflow: peak RSS %d MiB exceeds the %d MiB bound\n",
			run.Stats.PeakRSS>>20, *assertRSSMB)
		return 1
	}
	if *assertNPS > 0 && run.Stats.NetsPerSec < *assertNPS {
		fmt.Fprintf(os.Stderr, "chipflow: throughput %.0f nets/s below the %.0f nets/s bound\n",
			run.Stats.NetsPerSec, *assertNPS)
		return 1
	}
	return 0
}

// dumpFailedNets writes the pipeline's failed-net wide events — the
// flight recorder captures every net whose analysis failed, up to its
// buffer bound — as a JSON array, newest first. A clean run writes [].
func dumpFailedNets(path string) error {
	var failed []obs.WideEvent
	for _, cp := range obs.DefaultFlight().Captures() {
		if cp.Event.Route == "pipeline.net" && cp.Event.Class != "" {
			failed = append(failed, cp.Event)
		}
	}
	if failed == nil {
		failed = []obs.WideEvent{}
	}
	js, err := json.MarshalIndent(failed, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(js)
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

// limitsFor sizes guard limits to the declared input: the defaults
// (64k nets, 1M elements) protect servers fed untrusted decks, but a
// full-chip CLI run is the one place those bounds are the workload.
func limitsFor(cfg config, maxNets, maxElems int) guard.Limits {
	lim := guard.Limits{MaxNets: maxNets, MaxElements: maxElems}
	if lim.MaxNets == 0 {
		if cfg.synth > 0 {
			lim.MaxNets = cfg.synth + 1
		} else {
			lim.MaxNets = math.MaxInt
		}
	}
	if lim.MaxElements == 0 {
		if cfg.synth > 0 {
			// Worst case ~4 entries per section (cap, res, induc, conn)
			// plus per-net overhead; ×8 mean sections headroom for the
			// size distribution's tail.
			lim.MaxElements = cfg.synth * (8*cfg.sections + 16)
		} else {
			lim.MaxElements = math.MaxInt
		}
	}
	return lim
}

func execute(ctx context.Context, cfg config, lim guard.Limits) (*chipRun, error) {
	run := &chipRun{Input: cfg.input}
	pcfg := engine.PipelineConfig{
		Workers:    cfg.workers,
		QueueDepth: cfg.depth,
		Limits:     lim,
		TopK:       cfg.topK,
	}

	var pipeHash *netHasher
	if cfg.verify {
		pipeHash = newNetHasher()
		pcfg.OnNet = pipeHash.observe
	}

	r, cleanup, err := openInput(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	span, ctx := obs.StartSpan(ctx, "pipeline")
	report, stats, err := engine.RunPipeline(ctx, r, pcfg)
	if err != nil {
		span.EndWith(guard.ClassName(err))
		return nil, err
	}
	span.SetSections(stats.Sections)
	span.End()
	run.Report = report
	run.Stats = stats
	if cfg.synth > 0 {
		run.Input = "synthetic"
		run.SynthNets = cfg.synth
		run.SynthSecs = cfg.sections
		run.Seed = cfg.seed
	}

	if cfg.verify {
		span, ctx := obs.StartSpan(ctx, "verify")
		twinHash, err := serialTwinHash(ctx, cfg, lim)
		if err != nil {
			span.EndWith(guard.ClassName(err))
			return nil, fmt.Errorf("verify: %w", err)
		}
		span.End()
		if pipeHash.sum() != twinHash {
			return nil, fmt.Errorf("verify: pipeline results differ from the serial slow twin (hash %016x vs %016x over %d nets)",
				pipeHash.sum(), twinHash, stats.Nets+stats.Failed)
		}
		run.Verified = true
		run.VerifyHash = fmt.Sprintf("%016x", pipeHash.sum())
	}
	return run, nil
}

// openInput returns the SPEF byte stream for the configured source: a
// file, stdin, or the synthetic generator writing through a pipe.
func openInput(ctx context.Context, cfg config) (io.Reader, func(), error) {
	if cfg.synth > 0 {
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(genDesign(ctx, pw, cfg.synth, cfg.sections, cfg.seed)) }()
		return pr, func() { pr.Close() }, nil
	}
	if cfg.input == "-" {
		return bufio.NewReaderSize(os.Stdin, 1<<20), func() {}, nil
	}
	f, err := os.Open(cfg.input)
	if err != nil {
		return nil, nil, err
	}
	return bufio.NewReaderSize(f, 1<<20), func() { f.Close() }, nil
}

// serialTwinHash streams the same input again and analyzes every net
// serially with the batch path's functions, hashing results exactly the
// way the pipeline's OnNet hook does.
func serialTwinHash(ctx context.Context, cfg config, lim guard.Limits) (uint64, error) {
	r, cleanup, err := openInput(ctx, cfg)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	h := newNetHasher()
	s := spef.StreamLimits(r, lim)
	for i := 0; ; i++ {
		n, err := s.Next()
		if err == io.EOF {
			return h.sum(), nil
		}
		if err != nil {
			return 0, err
		}
		res := engine.NetResult{Index: i, Net: n.Name}
		res.Err = func() error {
			tree, err := n.Tree(s.Units())
			if err != nil {
				return err
			}
			nodes, err := core.AnalyzeTreeCtx(ctx, tree)
			if err != nil {
				return err
			}
			res.Summary, err = timing.SummarizeNet(n.Name, nodes)
			return err
		}()
		h.observe(res)
		s.Recycle(n)
	}
}

// netHasher folds per-net results into one order-sensitive FNV-1a hash:
// equal hashes ⇒ the two runs produced bit-identical summaries for the
// same nets in the same stream order. OnNet delivers stream order, so
// the pipeline and the serial twin hash the same sequence.
type netHasher struct{ h hash.Hash64 }

func newNetHasher() *netHasher { return &netHasher{h: fnv.New64a()} }

func (nh *netHasher) observe(res engine.NetResult) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		nh.h.Write(buf[:])
	}
	io.WriteString(nh.h, res.Net)
	if res.Err != nil {
		io.WriteString(nh.h, "!"+guard.ClassName(res.Err))
		return
	}
	s := &res.Summary
	io.WriteString(nh.h, s.CritSink)
	word(uint64(s.Sections))
	word(uint64(s.Sinks))
	word(uint64(s.PathLen))
	word(uint64(s.Degraded))
	word(math.Float64bits(s.MaxDelay))
	word(math.Float64bits(s.AvgDelay))
	word(math.Float64bits(s.Stretch))
}

func (nh *netHasher) sum() uint64 { return nh.h.Sum64() }

// genDesign streams a synthetic SPEF design: nets of randomized size
// (1..2×mean−1 sections) with random tree topologies and values in
// realistic parasitic ranges, fully determined by the seed. It writes
// plain text through w so the benchmark exercises the real parser on
// real bytes, not a shortcut into the data structures. Each line is
// appended into one reused buffer (strconv 'g' with precision 6 is the
// byte-for-byte form of %.6g), so generating a net costs a small share
// of parsing it.
func genDesign(ctx context.Context, w io.Writer, nets, meanSections int, seed int64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"synth_%d_%d\"\n*DIVIDER /\n*DELIMITER :\n", nets, seed)
	bw.WriteString("*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n*L_UNIT 1 NH\n\n")
	rng := rand.New(rand.NewSource(seed))
	parents := make([]int, 0, 2*meanSections)
	hasChild := make([]bool, 0, 2*meanSections)
	var line []byte
	// node appends " n<net>:<k>".
	node := func(i, k int) {
		line = append(line, " n"...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, ':')
		line = strconv.AppendInt(line, int64(k), 10)
	}
	// value appends " <v>" in %.6g form and ends the line.
	value := func(v float64) {
		line = append(line, ' ')
		line = strconv.AppendFloat(line, v, 'g', 6, 64)
		line = append(line, '\n')
	}
	for i := 0; i < nets; i++ {
		if i%4096 == 0 {
			if err := guard.Check(ctx); err != nil {
				return err
			}
		}
		size := 1 + rng.Intn(2*meanSections-1)
		// Random tree: node k hangs off a uniformly chosen earlier node.
		// Node 0 is the driver; names are net-local.
		parents = parents[:0]
		hasChild = append(hasChild[:0], make([]bool, size+1)...)
		for k := 1; k <= size; k++ {
			p := rng.Intn(k)
			parents = append(parents, p)
			hasChild[p] = true
		}
		line = append(line[:0], "*D_NET n"...)
		line = strconv.AppendInt(line, int64(i), 10)
		value(float64(size) * 0.03)
		line = append(line, "*CONN\n*I"...)
		node(i, 0)
		line = append(line, " O\n"...)
		for k := 1; k <= size; k++ {
			if !hasChild[k] {
				line = append(line, "*I"...)
				node(i, k)
				line = append(line, " I\n"...)
			}
		}
		line = append(line, "*CAP\n"...)
		for k := 1; k <= size; k++ {
			line = strconv.AppendInt(line, int64(k), 10)
			node(i, k)
			value(0.005 + rng.Float64()*0.05)
		}
		for _, sec := range [...]struct {
			head       string
			base, span float64
		}{{"*RES\n", 1, 40}, {"*INDUC\n", 0.05, 0.5}} {
			line = append(line, sec.head...)
			for k := 1; k <= size; k++ {
				line = strconv.AppendInt(line, int64(k), 10)
				node(i, parents[k-1])
				node(i, k)
				value(sec.base + rng.Float64()*sec.span)
			}
		}
		line = append(line, "*END\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func renderText(r *chipRun) string {
	var b strings.Builder
	src := r.Input
	if r.SynthNets > 0 {
		src = fmt.Sprintf("synthetic (%d nets, ~%d sections/net, seed %d)", r.SynthNets, r.SynthSecs, r.Seed)
	}
	fmt.Fprintf(&b, "chipflow: %s\n", src)
	st := &r.Stats
	fmt.Fprintf(&b, "%d nets (%d failed), %d sections in %v — %.0f nets/s, %d workers, queue depth %d\n",
		st.Nets, st.Failed, st.Sections, st.Wall.Round(time.Millisecond), st.NetsPerSec, st.Workers, st.QueueDepth)
	fmt.Fprintf(&b, "peak heap %.1f MiB, peak RSS %.1f MiB\n",
		float64(st.PeakHeap)/(1<<20), float64(st.PeakRSS)/(1<<20))
	if len(st.FailedByClass) > 0 {
		fmt.Fprintf(&b, "failures by class: %v\n", st.FailedByClass)
	}
	if r.Verified {
		fmt.Fprintf(&b, "verify: OK — pipeline bit-identical to the serial twin (hash %s)\n", r.VerifyHash)
	}
	rep := &r.Report
	fmt.Fprintf(&b, "\nchip: %d nets, %d sinks, %d degraded\n", rep.Nets, rep.Sinks, rep.Degraded)
	fmt.Fprintf(&b, "worst delay %.3f ps at %s / %s (path %d sections)\n",
		1e12*rep.MaxDelay, rep.CritNet, rep.CritSink, rep.CritPathLen)
	fmt.Fprintf(&b, "avg worst-sink delay %.3f ps, avg sink delay %.3f ps, max RLC/RC stretch %.3f\n",
		1e12*rep.AvgMaxDelay, 1e12*rep.AvgDelay, rep.MaxStretch)
	if len(rep.Critical) > 0 {
		fmt.Fprintf(&b, "\n%-4s %-12s %12s %12s %-14s %6s %8s\n", "#", "net", "max[ps]", "avg[ps]", "crit sink", "path", "stretch")
		for i := range rep.Critical {
			ns := &rep.Critical[i]
			fmt.Fprintf(&b, "%-4d %-12s %12.3f %12.3f %-14s %6d %8.3f\n",
				i+1, ns.Net, 1e12*ns.MaxDelay, 1e12*ns.AvgDelay, ns.CritSink, ns.PathLen, ns.Stretch)
		}
	}
	return b.String()
}
