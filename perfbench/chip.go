package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
)

// The chip workload streams the rendered SPEF design from its file
// through engine.RunPipeline, pass after pass, with one analyze worker
// per CPU. It is the only workload that runs the SPEF parser, Net.Tree,
// the closed-form sweep at scale and the timing fold.

// chipLimits sizes the guard limits to the rendered design, as chipflow
// does for -synth.
func chipLimits() guard.Limits {
	return guard.Limits{MaxNets: chipNets + 1, MaxElements: chipNets * (8*chipMeanSections + 16)}
}

// pipelinePass streams the first limit bytes of path (all when limit <=
// 0) through the pipeline.
func pipelinePass(path string, limit int64, workers int, onNet func(engine.NetResult)) (timing.ChipReport, engine.PipelineStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return timing.ChipReport{}, engine.PipelineStats{}, err
	}
	defer f.Close()
	var r io.Reader = f
	if limit > 0 {
		r = io.LimitReader(f, limit)
	}
	return engine.RunPipeline(context.Background(), bufio.NewReaderSize(r, 1<<20), engine.PipelineConfig{
		Workers: workers,
		Limits:  chipLimits(),
		TopK:    10,
		OnNet:   onNet,
	})
}

// hashNet folds one net result into h, exactly: equal hashes over a pass
// mean bit-identical summaries in the same order.
func hashNet(h hash.Hash64, r engine.NetResult) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, r.Net)
	if r.Err != nil {
		io.WriteString(h, "!"+guard.ClassName(r.Err))
		return
	}
	s := &r.Summary
	io.WriteString(h, s.CritSink)
	word(uint64(s.Sections))
	word(uint64(s.Sinks))
	word(uint64(s.PathLen))
	word(uint64(s.Degraded))
	word(math.Float64bits(s.MaxDelay))
	word(math.Float64bits(s.AvgDelay))
	word(math.Float64bits(s.Stretch))
}

// sameNet reports whether two results for one net are bit-identical.
func sameNet(a, b engine.NetResult) bool {
	if a.Net != b.Net || (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return guard.ClassName(a.Err) == guard.ClassName(b.Err)
	}
	x, y := a.Summary, b.Summary
	return x.Net == y.Net && x.Sections == y.Sections && x.Sinks == y.Sinks &&
		x.CritSink == y.CritSink && x.PathLen == y.PathLen && x.Degraded == y.Degraded &&
		math.Float64bits(x.MaxDelay) == math.Float64bits(y.MaxDelay) &&
		math.Float64bits(x.AvgDelay) == math.Float64bits(y.AvgDelay) &&
		math.Float64bits(x.Stretch) == math.Float64bits(y.Stretch)
}

// serialHooks configures serialPass. With rec nil the pass is untraced:
// the same calls, no spans, no allocation reads.
type serialHooks struct {
	rec   *recorder
	rt    *rtReader
	alloc map[string]uint64 // heap bytes allocated per layer (traced only)
	only  []bool            // analyze only nets i with only[i] (nil: all)
	onNet func(engine.NetResult)
}

// Layer names of the chip ledger, in call order.
const (
	layerNet     = "net"
	layerParse   = "spef.Stream.Next"
	layerTree    = "spef.Net.Tree"
	layerSums    = "rlctree.Tree.ElmoreSums"
	layerClosed  = "core.AnalyzeNodeSums"
	layerSummary = "timing.SummarizeNet"
	layerFold    = "timing.ChipAggregator.Add"
)

// serialPass replays path serially through the public functions the
// pipeline runs, in the order core.AnalyzeTreeCtx and the pipeline call
// them: Stream.Next, Net.Tree, ElmoreSums, AnalyzeNodeSums per node,
// SummarizeNet, ChipAggregator.Add.
func serialPass(path string, h serialHooks) (nets, sections int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	s := spef.StreamLimits(bufio.NewReaderSize(f, 1<<20), chipLimits())
	agg := timing.NewChipAggregator(10)
	rec := h.rec
	var root int32 = -1
	call := func(name string, item int32, fn func()) {
		if rec == nil {
			fn()
			return
		}
		a0 := h.rt.allocs()
		sp := rec.begin(name, root, item)
		fn()
		rec.end(sp)
		h.alloc[name] += h.rt.allocs() - a0
	}
	for i := 0; ; i++ {
		item := int32(i)
		if rec != nil {
			root = rec.begin(layerNet, -1, item)
		}
		var n *spef.Net
		call(layerParse, item, func() { n, err = s.Next() })
		if err == io.EOF {
			if rec != nil {
				rec.spans = rec.spans[:root] // the probe past the end is no net
			}
			return nets, sections, nil
		}
		if err != nil {
			return nets, sections, err
		}
		nets++
		if h.only != nil && (i >= len(h.only) || !h.only[i]) {
			s.Recycle(n)
			continue
		}
		res := engine.NetResult{Index: i, Net: n.Name}
		res.Err = func() error {
			var tree *rlctree.Tree
			var err error
			call(layerTree, item, func() { tree, err = n.Tree(s.Units()) })
			if err != nil {
				return err
			}
			sections += tree.Len()
			var sums rlctree.Sums
			call(layerSums, item, func() { sums = tree.ElmoreSums() })
			var nodes []core.NodeAnalysis
			call(layerClosed, item, func() {
				nodes = make([]core.NodeAnalysis, tree.Len())
				for k, sec := range tree.Sections() {
					var na core.NodeAnalysis
					if na, err = core.AnalyzeNodeSums(sums, sec); err != nil {
						return
					}
					nodes[k] = na
				}
			})
			if err != nil {
				return err
			}
			call(layerSummary, item, func() { res.Summary, err = timing.SummarizeNet(n.Name, nodes) })
			if err != nil {
				return err
			}
			call(layerFold, item, func() { agg.Add(res.Summary) })
			return nil
		}()
		if h.onNet != nil {
			h.onNet(res)
		}
		s.Recycle(n)
		if rec != nil {
			rec.end(root)
		}
	}
}

// sampleNets picks a seeded sample of about one net in sixteen.
func sampleNets(seed int64, nets int) []bool {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	out := make([]bool, nets)
	for i := range out {
		out[i] = rng.Intn(16) == 0
	}
	return out
}

func runChip(cfg config) (childResult, error) {
	res := childResult{Metrics: map[string]float64{}}
	var desc chipDesc
	if err := readJSON(chipDescPath(cfg.input), &desc); err != nil {
		return res, err
	}
	res.Report = append(res.Report,
		fmt.Sprintf("input: %d nets, %d sections, %.1f MiB; sections/net p10 %.0f p50 %.0f p90 %.0f max %.0f; zeta<1 share %.4f (every 10th net)",
			desc.Nets, desc.Sections, float64(desc.Bytes)/(1<<20), desc.SectionsP10, desc.SectionsP50, desc.SectionsP90, desc.SectionsMax, desc.ZetaBelow1))
	workers := nproc()

	// Set-up: one pipeline pass over the warm-up prefix, so that the
	// net pool, the heap and the page cache are warm before timing.
	t0 := time.Now()
	if _, _, err := pipelinePass(cfg.input, desc.WarmupBytes, workers, nil); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return res, nil
	}
	if cfg.trace {
		return chipTraced(cfg, desc, workers, res)
	}

	var t tally
	sample := sampleNets(cfg.seed, desc.Nets)
	sampled := map[int]engine.NetResult{}
	var hashes []uint64
	var reports []timing.ChipReport
	var nps, walls []float64
	ph := startTimed()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		h := fnv.New64a()
		first := pass == 0
		rep, st, err := pipelinePass(cfg.input, 0, workers, func(r engine.NetResult) {
			hashNet(h, r)
			if first && sample[r.Index] {
				sampled[r.Index] = r
			}
		})
		if err != nil {
			return res, fmt.Errorf("pipeline pass %d: %w", pass, err)
		}
		t.attempted += int64(st.Nets + st.Failed)
		for i := 0; i < st.Failed; i++ {
			t.fail(false, "pass %d: a net failed", pass)
		}
		hashes = append(hashes, h.Sum64())
		reports = append(reports, rep)
		nps = append(nps, st.NetsPerSec)
		walls = append(walls, ms(st.Wall))
	}
	ph.stop(res.Metrics, float64(t.attempted))

	// Checks, outside the timed passes: every pass reproduces pass 0
	// exactly, and a seeded sample of nets matches the serial path.
	for p := 1; p < len(hashes); p++ {
		if hashes[p] != hashes[0] || !reflect.DeepEqual(reports[p], reports[0]) {
			for i := 0; i < desc.Nets; i++ {
				t.fail(true, "pass %d differs from pass 0", p)
			}
		}
	}
	checked := 0
	if _, _, err := serialPass(cfg.input, serialHooks{only: sample, onNet: func(r engine.NetResult) {
		checked++
		if got, ok := sampled[r.Index]; !ok || !sameNet(got, r) {
			t.fail(true, "net %s: pipeline result differs from the serial path", r.Net)
		}
	}}); err != nil {
		return res, fmt.Errorf("serial check: %w", err)
	}
	res.Report = append(res.Report, fmt.Sprintf("checked %d sampled nets against the serial path and %d passes against pass 0", checked, len(hashes)))

	res.Metrics["ops_per_s"] = median(nps)
	res.Metrics["latency_p50_ms"] = median(walls)
	res.Report = append(res.Report,
		fmt.Sprintf("ops_per_s (nets/s, %d workers): median of %d passes; latency_p50_ms: median whole-design pass, %d samples", workers, len(nps), len(walls)))
	res.fold(t, false)
	return res, nil
}

// chipTraced is the traced chip run: untraced pipeline passes for the
// program's own histograms and counters, then the same file replayed
// serially, first untraced and then with a span around every layer call.
func chipTraced(cfg config, desc chipDesc, workers int, res childResult) (childResult, error) {
	var t tally
	m := res.Metrics
	rt := newRTReader()

	// 1. Two pipeline passes; pass 0 keeps every net's result.
	all := make([]engine.NetResult, desc.Nets)
	var npsSum float64
	var snaps []obsSnap
	r0 := rt.read()
	snaps = append(snaps, snapObs())
	for pass := 0; pass < 2; pass++ {
		first := pass == 0
		_, st, err := pipelinePass(cfg.input, 0, workers, func(r engine.NetResult) {
			if first && r.Index < len(all) {
				all[r.Index] = r
			}
		})
		if err != nil {
			return res, err
		}
		snaps = append(snaps, snapObs())
		npsSum += st.NetsPerSec
		t.attempted += int64(st.Nets + st.Failed)
		for i := 0; i < st.Failed; i++ {
			t.fail(false, "a net failed in the pipeline")
		}
	}
	r1 := rt.read()
	m["nets_per_s"] = npsSum / 2
	m["runtime.gc_cpu_share"] = gcShare(r0, r1)
	m["runtime.heap_live_mib"] = float64(r1.liveBytes) / (1 << 20)
	m["engine.pipe_parse_p50_us"] = histQuantile(snaps[0], snaps[2], "eed_pipe_parse_latency_ns", 0.5) / 1e3
	m["engine.pipe_analyze_p50_us"] = histQuantile(snaps[0], snaps[2], "eed_pipe_analyze_latency_ns", 0.5) / 1e3
	gaps := counterGaps([][2]obsSnap{{snaps[0], snaps[1]}, {snaps[1], snaps[2]}},
		[]string{"eed_pipe_nets_parsed_total", "eed_pipe_net_failures_total"},
		[]string{"eed_pipe_analyze_latency_ns", "eed_pipe_parse_latency_ns", "eed_core_sums_latency_ns", "eed_core_kernel_latency_ns"})
	m["ledger.counter_gaps"] = float64(len(gaps))
	for _, g := range gaps {
		res.Report = append(res.Report, "finding: "+g)
	}

	// 2. Untraced serial replay.
	tu := time.Now()
	nets, _, err := serialPass(cfg.input, serialHooks{})
	if err != nil {
		return res, err
	}
	untraced := time.Since(tu)

	// 3. Traced serial replay; every net is checked against pass 0.
	rec := newRecorder(desc.Nets * 8)
	alloc := map[string]uint64{}
	tt := time.Now()
	_, sections, err := serialPass(cfg.input, serialHooks{rec: rec, rt: rt, alloc: alloc, onNet: func(r engine.NetResult) {
		t.attempted++
		if r.Index >= len(all) || !sameNet(all[r.Index], r) {
			t.fail(true, "net %s: pipeline result differs from the serial path", r.Net)
		}
	}})
	if err != nil {
		return res, err
	}
	traced := time.Since(tt)
	self := rec.selfTimes()

	fn, fs := float64(nets), float64(sections)
	parse, tree, sums, closed := self[layerParse], self[layerTree], self[layerSums], self[layerClosed]
	summ, fold := self[layerSummary], self[layerFold]
	m["spef.parse_us_per_net"] = us(parse) / fn
	m["spef.parse_mb_per_s"] = float64(desc.Bytes) / parse.Seconds() / 1e6
	m["spef.parse_alloc_kb_per_net"] = float64(alloc[layerParse]) / 1024 / fn
	m["spef.tree_us_per_net"] = us(tree) / fn
	m["spef.tree_alloc_kb_per_net"] = float64(alloc[layerTree]) / 1024 / fn
	m["rlctree.sums_ns_per_section"] = ns(sums) / fs
	m["core.closed_forms_ns_per_node"] = ns(closed) / fs
	m["core.closed_forms_alloc_kb_per_net"] = float64(alloc[layerClosed]) / 1024 / fn
	m["timing.summarize_ns_per_net"] = ns(summ) / fn
	m["timing.fold_ns_per_net"] = ns(fold) / fn
	m["chip.serial_us_per_net"] = us(traced) / fn
	m["chip.untraced_serial_us_per_net"] = us(untraced) / fn
	m["chip.trace_overhead"] = ratio(traced.Seconds(), untraced.Seconds()) - 1
	layers := parse + tree + sums + closed + summ + fold
	m["chip.ledger_coverage"] = ratio(layers.Seconds(), traced.Seconds())
	serialNPS := fn / untraced.Seconds()
	m["engine.pipeline_efficiency"] = ratio(m["nets_per_s"], float64(workers)*serialNPS)
	work := (tree + sums + closed + summ).Seconds() / float64(workers)
	m["engine.parse_bound_share"] = ratio(parse.Seconds(), math.Max(parse.Seconds(), work))
	if c := m["chip.ledger_coverage"]; c < 1-ledgerTolerance || c > 1+ledgerTolerance {
		res.Report = append(res.Report, fmt.Sprintf("finding: chip ledger covers %.3f of the serial wall time, outside 1±%.2f", c, ledgerTolerance))
	}
	res.Report = append(res.Report, fmt.Sprintf("traced serial replay: %d nets, %d spans, overhead %.3f vs untraced", nets, len(rec.spans), m["chip.trace_overhead"]))
	if err := rec.write(fmt.Sprintf("chip-%d", cfg.seed)); err != nil {
		return res, err
	}
	res.fold(t, true)
	return res, nil
}

// ledgerTolerance is how far the sum of the chip's layer self times may
// stray from the traced serial wall time before the run reports it.
const ledgerTolerance = 0.15

// counterGaps compares the growth of the named counters, and the sample
// counts of the named histograms, over runs of the same work, each given
// as its (before, after) snapshots. The same work repeated must move the
// program's own counters by exactly the same amounts; every difference is
// reported.
func counterGaps(runs [][2]obsSnap, counters, hists []string) []string {
	var gaps []string
	first := runs[0]
	for _, r := range runs[1:] {
		for _, c := range counters {
			a, b := counterDelta(first[0], first[1], c), counterDelta(r[0], r[1], c)
			if a != b {
				gaps = append(gaps, fmt.Sprintf("counter %s grew by %.0f then by %.0f for the same work", c, a, b))
			}
		}
		for _, h := range hists {
			a, b := histCount(first[0], first[1], h), histCount(r[0], r[1], h)
			if a != b {
				gaps = append(gaps, fmt.Sprintf("histogram %s gained %.0f then %.0f samples for the same work", h, a, b))
			}
		}
	}
	return gaps
}
