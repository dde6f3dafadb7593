package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"eedtree/internal/engine"
	"eedtree/internal/opt"
	"eedtree/internal/rlctree"
)

// The opt workload has nproc workers each solve a seeded queue of
// optimizer problems in a fixed rotation: OptimizeWidths,
// InsertRepeatersTopo, ExploreTopologies. It is the only workload that
// drives structural edits (rlctree attach, detach, split and incr record
// replay) and the O(depth) incremental query inner loop.

const (
	kindSizing = iota
	kindRepeater
	kindTopology
	numOptKinds
)

var optKindNames = [numOptKinds]string{"sizing", "repeater", "topology"}

// optOutcome is one solved problem: its exact result rendering, the
// work counter it reports, and whether its invariants held.
type optOutcome struct {
	key   string // exact rendering of the result; floats print shortest round-trip
	evals int    // SizingResult.Sweeps, TopoPlan.Evals or TopologyResult.Evals
	bad   string // first broken invariant, "" when none
}

// solve runs problem idx of the given kind from worker w's queue.
func (ps *optProblems) solve(w, kind, idx int) (optOutcome, error) {
	switch kind {
	case kindSizing:
		p := ps.Sizing[w][idx]
		r, err := opt.OptimizeWidths(p, 0, ps.Sweeps)
		if err != nil {
			return optOutcome{}, err
		}
		return checkSizing(p, r), nil
	case kindRepeater:
		p := ps.Repeat[w][idx]
		r, err := opt.InsertRepeatersTopo(p)
		if err != nil {
			return optOutcome{}, err
		}
		return checkRepeater(p, r), nil
	default:
		p := ps.Topo[w][idx]
		r, err := opt.ExploreTopologies(p)
		if err != nil {
			return optOutcome{}, err
		}
		return checkTopology(p, r), nil
	}
}

// checkSizing: the reported delay must be the one-shot objective at the
// reported widths, bit for bit, and every width must be in range.
func checkSizing(p opt.SizingProblem, r opt.SizingResult) optOutcome {
	o := optOutcome{key: fmt.Sprintf("%v", r), evals: r.Sweeps}
	d, err := p.Delay(r.Widths)
	switch {
	case err != nil:
		o.bad = fmt.Sprintf("Delay(Widths): %v", err)
	case !sameBits(d, r.Delay):
		o.bad = fmt.Sprintf("Delay %v but Delay(Widths) = %v", r.Delay, d)
	case len(r.Widths) != p.Segments:
		o.bad = fmt.Sprintf("%d widths for %d segments", len(r.Widths), p.Segments)
	}
	for _, w := range r.Widths {
		if o.bad == "" && !(w >= p.WMin && w <= p.WMax) {
			o.bad = fmt.Sprintf("width %v outside [%v, %v]", w, p.WMin, p.WMax)
		}
	}
	return o
}

// repeaterTotal re-adds a plan's stage delays and intrinsic delays in the
// optimizer's own order, which depends on which stage the last repeater
// split: K·TIntrinsic, then the untouched stages in order, then the two
// stages of the split. It reports whether any split position reproduces
// TotalDelay bit for bit.
func repeaterTotal(p opt.TopoRepeaterProblem, r opt.TopoPlan) bool {
	d := r.StageDelays
	if r.K == 0 {
		return len(d) == 1 && sameBits(d[0], r.TotalDelay)
	}
	if len(d) != r.K+1 {
		return false
	}
	for j := 0; j < r.K; j++ {
		total := p.Rep.TIntrinsic * float64(r.K)
		for k := range d {
			if k != j && k != j+1 {
				total += d[k]
			}
		}
		if sameBits(total+d[j]+d[j+1], r.TotalDelay) {
			return true
		}
	}
	return false
}

// checkRepeater: TotalDelay must be ΣStageDelays + K·TIntrinsic.
func checkRepeater(p opt.TopoRepeaterProblem, r opt.TopoPlan) optOutcome {
	o := optOutcome{key: fmt.Sprintf("%v", r), evals: r.Evals}
	switch {
	case r.K != len(r.Placements) || r.K > p.MaxK:
		o.bad = fmt.Sprintf("K = %d with %d placements, MaxK %d", r.K, len(r.Placements), p.MaxK)
	case !repeaterTotal(p, r):
		o.bad = fmt.Sprintf("TotalDelay %v is not ΣStageDelays %v + %d·TIntrinsic", r.TotalDelay, r.StageDelays, r.K)
	}
	return o
}

// checkTopology: Cost must be MaxDelay + λ·StubLength, bit for bit, and
// every sink must sit on a trunk tap.
func checkTopology(p opt.TopologyProblem, r opt.TopologyResult) optOutcome {
	o := optOutcome{key: fmt.Sprintf("%v", r), evals: r.Evals}
	switch {
	case !sameBits(r.Cost, r.MaxDelay+p.Lambda*r.StubLength):
		o.bad = fmt.Sprintf("Cost %v is not MaxDelay + λ·StubLength = %v", r.Cost, r.MaxDelay+p.Lambda*r.StubLength)
	case len(r.Taps) != len(p.Sinks):
		o.bad = fmt.Sprintf("%d taps for %d sinks", len(r.Taps), len(p.Sinks))
	}
	for _, t := range r.Taps {
		if o.bad == "" && (t < 0 || t >= p.Trunk.Sections) {
			o.bad = fmt.Sprintf("tap %d outside the %d-tap trunk", t, p.Trunk.Sections)
		}
	}
	return o
}

func keyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// optLoop is what a closed-loop opt phase measured.
type optLoop struct {
	lat     [numOptKinds][]time.Duration
	ends    []time.Duration // completion times since the start
	ops     int
	elapsed time.Duration
	t       tally
}

// closedLoop has every worker solve its queue in rotation until dur has
// passed. A problem solved again must give exactly its first result.
func (ps *optProblems) closedLoop(dur time.Duration) optLoop {
	var out optLoop
	lats := make([][numOptKinds][]time.Duration, ps.Workers)
	ends := make([][]time.Duration, ps.Workers)
	tallies := make([]tally, ps.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < ps.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			first := map[int]uint64{}
			for i := 0; time.Now().Before(deadline); i++ {
				kind, idx := i%numOptKinds, (i/numOptKinds)%optProblemsPerKind
				t0 := time.Now()
				o, err := ps.solve(w, kind, idx)
				lats[w][kind] = append(lats[w][kind], time.Since(t0))
				ends[w] = append(ends[w], time.Since(start))
				t.attempted++
				switch {
				case err != nil:
					t.fail(false, "%s %d/%d: %v", optKindNames[kind], w, idx, err)
					continue
				case o.bad != "":
					t.fail(true, "%s %d/%d: %s", optKindNames[kind], w, idx, o.bad)
					continue
				}
				slot := kind*optProblemsPerKind + idx
				if h, ok := first[slot]; !ok {
					first[slot] = keyHash(o.key)
				} else if h != keyHash(o.key) {
					t.fail(true, "%s %d/%d: a repeated solve gave a different result", optKindNames[kind], w, idx)
				}
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for w := range lats {
		for k := range lats[w] {
			out.lat[k] = append(out.lat[k], lats[w][k]...)
		}
		out.ends = append(out.ends, ends[w]...)
		out.t.add(tallies[w])
	}
	out.ops = int(out.t.attempted)
	return out
}

func (ps *optProblems) describe() string {
	var seg, sec, taps []int
	for w := 0; w < ps.Workers; w++ {
		for i := 0; i < optProblemsPerKind; i++ {
			seg = append(seg, ps.Sizing[w][i].Segments)
			sec = append(sec, ps.Repeat[w][i].Line.Sections)
			taps = append(taps, ps.Topo[w][i].Trunk.Sections)
		}
	}
	return fmt.Sprintf("input: %d workers x %d problems per kind; sizing segments %v (%d sweeps), repeater sections %v, topology taps %v",
		ps.Workers, optProblemsPerKind, seg, ps.Sweeps, sec, taps)
}

func runOpt(cfg config) (childResult, error) {
	res := childResult{Metrics: map[string]float64{}}
	var ps optProblems
	if err := readJSON(cfg.input, &ps); err != nil {
		return res, err
	}
	if ps.Workers != nproc() {
		return res, fmt.Errorf("problem set rendered for %d workers, have %d", ps.Workers, nproc())
	}
	res.Report = append(res.Report, ps.describe())

	// Set-up: solve one problem of each kind, untimed, so that the
	// first timed call does not pay for cold code and an empty heap.
	t0 := time.Now()
	for kind := 0; kind < numOptKinds; kind++ {
		if _, err := ps.solve(0, kind, 0); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.SetupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return res, nil
	}
	if cfg.trace {
		return optTraced(cfg, &ps, res)
	}

	ph := startTimed()
	lp := ps.closedLoop(time.Duration(cfg.seconds) * time.Second)
	ph.stop(res.Metrics, float64(lp.ops))

	var all []float64
	for k := range lp.lat {
		xs := durationsUS(lp.lat[k])
		all = append(all, xs...)
		res.Report = append(res.Report, fmt.Sprintf("%s: %d calls, p50 %.3f ms", optKindNames[k], len(xs), median(xs)/1e3))
	}
	res.Metrics["ops_per_s"] = windowRate(lp.ends, lp.elapsed)
	res.Metrics["latency_p50_ms"] = median(all) / 1e3
	res.Report = append(res.Report, fmt.Sprintf("ops_per_s: median one-second window of %d optimizations in %.2f s from %d workers; latency_p50_ms over all calls", lp.ops, lp.elapsed.Seconds(), ps.Workers))
	res.fold(lp.t, false)
	return res, nil
}

// optCounters are the program's own incremental-engine counters the
// traced opt run reads.
var optCounters = []string{
	"eed_incr_queries_total",
	"eed_incr_edits_total",
	"eed_incr_resyncs_total",
	"eed_incr_structural_attaches_total",
	"eed_incr_structural_detaches_total",
	"eed_incr_structural_splits_total",
	"eed_incr_structural_resyncs_total",
}

var optHists = []string{"eed_incr_query_latency_ns", "eed_incr_structural_latency_ns"}

// optTraced is the traced opt run: an untraced closed loop for the
// per-kind latencies, then every problem solved serially with heap
// allocation and the program's counters read around each kind, twice, and
// two session operations timed alone.
func optTraced(cfg config, ps *optProblems, res childResult) (childResult, error) {
	m := res.Metrics
	rt := newRTReader()
	r0 := rt.read()
	lp := ps.closedLoop(time.Duration(cfg.seconds) * time.Second * 2 / 5)
	r1 := rt.read()
	m["runtime.gc_cpu_share"] = gcShare(r0, r1)
	m["runtime.heap_live_mib"] = float64(r1.liveBytes) / (1 << 20)
	for k, name := range []string{"sizing_p50_ms", "repeater_p50_ms", "topology_p50_ms"} {
		m[name] = median(durationsUS(lp.lat[k])) / 1e3
	}
	t := lp.t

	// Two identical serial sweeps over every problem; snaps[2r+k] is taken
	// before kind k of round r.
	var snaps [2][numOptKinds + 1]obsSnap
	var alloc, evals [numOptKinds][]float64
	for round := 0; round < 2; round++ {
		for kind := 0; kind < numOptKinds; kind++ {
			snaps[round][kind] = snapObs()
			for w := 0; w < ps.Workers; w++ {
				for idx := 0; idx < optProblemsPerKind; idx++ {
					a0 := rt.allocs()
					o, err := ps.solve(w, kind, idx)
					a1 := rt.allocs()
					t.attempted++
					if err != nil || o.bad != "" {
						t.fail(err == nil, "%s %d/%d: %v%s", optKindNames[kind], w, idx, err, o.bad)
						continue
					}
					if round == 0 {
						alloc[kind] = append(alloc[kind], float64(a1-a0)/1024)
						evals[kind] = append(evals[kind], float64(o.evals))
					}
				}
			}
		}
		snaps[round][numOptKinds] = snapObs()
	}
	s0, s1 := snaps[0][0], snaps[0][numOptKinds]
	n := float64(numOptKinds * ps.Workers * optProblemsPerKind)
	structural := float64(2 * ps.Workers * optProblemsPerKind) // repeater and topology calls
	m["opt.sizing_alloc_kb"] = median(alloc[kindSizing])
	m["opt.repeater_alloc_kb"] = median(alloc[kindRepeater])
	m["opt.topology_alloc_kb"] = median(alloc[kindTopology])
	m["opt.sizing_sweeps_per_opt"] = mean(evals[kindSizing])
	m["opt.repeater_evals_per_opt"] = mean(evals[kindRepeater])
	m["opt.topology_evals_per_opt"] = mean(evals[kindTopology])
	m["incr.queries_per_opt"] = counterDelta(s0, s1, "eed_incr_queries_total") / n
	m["incr.query_p50_ns"] = histQuantile(s0, s1, "eed_incr_query_latency_ns", 0.5)
	m["incr.structural_ops_per_opt"] = (counterDelta(s0, s1, "eed_incr_structural_attaches_total") +
		counterDelta(s0, s1, "eed_incr_structural_detaches_total") +
		counterDelta(s0, s1, "eed_incr_structural_splits_total")) / structural
	m["incr.structural_p50_ns"] = histQuantile(s0, s1, "eed_incr_structural_latency_ns", 0.5)
	m["incr.resyncs_per_opt"] = counterDelta(s0, s1, "eed_incr_resyncs_total") / n

	// The same problems must move the program's counters by the same
	// amounts in both rounds, kind by kind.
	var gaps []string
	for kind := 0; kind < numOptKinds; kind++ {
		runs := [][2]obsSnap{{snaps[0][kind], snaps[0][kind+1]}, {snaps[1][kind], snaps[1][kind+1]}}
		for _, g := range counterGaps(runs, optCounters, optHists) {
			gaps = append(gaps, optKindNames[kind]+": "+g)
		}
	}
	m["ledger.counter_gaps"] = float64(len(gaps))
	for _, g := range gaps {
		res.Report = append(res.Report, "finding: "+g)
	}

	if err := sessionTimings(m); err != nil {
		return res, err
	}
	res.fold(t, true)
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sessionTimings times, alone, the two session operations the optimizers
// repeat: a value edit plus a sink query on a 128-section line, and a
// leaf attach plus a query plus the detach that undoes it.
func sessionTimings(m map[string]float64) error {
	tree, err := rlctree.Line("w", 128, rlctree.SectionValues{R: 5, L: 0.1e-9, C: 30e-15})
	if err != nil {
		return err
	}
	sess, err := engine.NewSession(tree)
	if err != nil {
		return err
	}
	secs := tree.Sections()
	sink := secs[len(secs)-1]
	const batch = 1000
	var delayAt, attach []float64
	for b := 0; b < 50; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := sess.SetC(secs[(b*batch+i)%len(secs)], 30e-15*(1+0.01*float64(i%7))); err != nil {
				return err
			}
			if _, err := sess.DelayAt(sink); err != nil {
				return err
			}
		}
		delayAt = append(delayAt, ns(time.Since(t0))/batch)
	}
	for b := 0; b < 50; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			leaf, err := sess.AttachLeaf("probe", secs[(b*batch+i)%len(secs)], 3, 0.05e-9, 20e-15)
			if err != nil {
				return err
			}
			d, err := sess.DelayAt(leaf)
			if err != nil || math.IsNaN(d) {
				return fmt.Errorf("probe delay %v: %v", d, err)
			}
			if _, err := sess.Detach(leaf); err != nil {
				return err
			}
		}
		attach = append(attach, ns(time.Since(t0))/batch)
	}
	m["engine.session_delay_at_ns"] = median(delayAt)
	m["engine.session_attach_detach_ns"] = median(attach)
	return nil
}
