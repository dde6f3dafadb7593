package engine

import (
	"context"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
)

// This file is the full-chip streaming pipeline: spef.Stream yields nets
// one at a time from an io.Reader, a worker pool builds and analyzes
// each net's RLC tree with the closed-form kernel, and a single
// aggregation goroutine folds the per-net summaries into a
// timing.ChipAggregator. All three stages overlap through bounded
// channels, so memory is set by queue depth × largest net — flat in the
// chip's net count — while the math (per-net closed forms) stays cheap
// enough that parse bandwidth, not analysis, bounds throughput.
//
// Bit-identity discipline: a net analyzed by the pipeline produces
// exactly the result of the slow twin
//
//	spef.Parse → Net.Tree → core.AnalyzeTreeCtx → timing.SummarizeNet
//
// The pipeline runs core.AnalyzeTreeDelays, the delay-only form of the
// same sweep: it fills every field SummarizeNet reads bit-identically to
// the full analysis and skips the closed forms the chip report never
// reads (rise time, overshoot, settling time). The twin (chipflow
// -verify) keeps the full AnalyzeTreeCtx, so its hash proves the
// delay-only sweep agrees with full analysis. The pipeline adds
// concurrency between nets, never inside one net's math.

// PipelineConfig configures RunPipeline. The zero value is usable: one
// worker per CPU, a queue depth of twice the workers, default limits,
// and no critical-net retention.
type PipelineConfig struct {
	// Workers is the number of analyze workers (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds each inter-stage channel (<= 0 means 2×Workers).
	// Larger depths smooth bursty net sizes at the cost of memory.
	QueueDepth int
	// Limits bounds the SPEF input with the same taxonomy as spef.Parse.
	Limits guard.Limits
	// TopK is how many critical nets the chip report retains.
	TopK int
	// OnNet, when non-nil, observes every net result (successes and
	// per-net failures) on the aggregation goroutine, in stream order.
	OnNet func(NetResult)
}

// NetResult is the outcome of one net's trip through the pipeline.
type NetResult struct {
	Index   int    // 0-based position in the SPEF stream
	Net     string // net name
	Summary timing.NetSummary
	Err     error // per-net failure (tree build or analysis), nil on success
}

// PipelineStats describes one RunPipeline execution.
type PipelineStats struct {
	Nets     int `json:"nets"`     // nets that completed analysis
	Failed   int `json:"failed"`   // nets that failed tree build or analysis
	Sections int `json:"sections"` // tree sections analyzed

	FailedByClass map[string]int `json:"failed_by_class,omitempty"`

	Wall       time.Duration `json:"wall_ns"`      // whole-pipeline wall time
	NetsPerSec float64       `json:"nets_per_sec"` // (Nets+Failed) / Wall
	PeakHeap   uint64        `json:"peak_heap_b"`  // max sampled Go heap in use
	PeakRSS    uint64        `json:"peak_rss_b"`   // process VmHWM after the run (0 when unavailable)
	Workers    int           `json:"workers"`      // analyze workers used
	QueueDepth int           `json:"queue_depth"`  // per-stage channel capacity
}

// pipeJob is one parsed net traveling parse → analyze.
type pipeJob struct {
	index int
	net   *spef.Net
	units spef.Units
}

// RunPipeline streams SPEF from r through parse → tree-build → analyze →
// aggregate and returns the chip report. Per-net failures (non-tree
// parasitics, degenerate nets) are isolated: they count in the stats and
// reach OnNet, but do not stop the stream — the contract of the batch
// engine, kept. A malformed stream (syntax error, limit trip) or context
// cancellation terminates the run and is returned as err, alongside the
// report and stats for everything already aggregated.
func RunPipeline(ctx context.Context, r io.Reader, cfg PipelineConfig) (timing.ChipReport, PipelineStats, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	track := obs.On()
	t0 := time.Now()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan pipeJob, depth)
	results := make(chan NetResult, depth)

	// Stage 1 — parse. One goroutine drains spef.Stream; a parse error
	// is terminal for the stream (the reader's position is undefined
	// afterwards), reported once through parseErr. The send blocks when
	// the queue is full: that is the backpressure that keeps a fast
	// parser from buffering the chip.
	var parseErr error
	var wgParse sync.WaitGroup
	wgParse.Add(1)
	go func() {
		defer wgParse.Done()
		defer close(jobs)
		s := spef.StreamLimits(r, cfg.Limits)
		for i := 0; ; i++ {
			var tParse time.Time
			if track {
				tParse = time.Now()
			}
			n, err := s.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				parseErr = err
				cancel()
				return
			}
			if track {
				mPipeParseLatency.ObserveSince(tParse)
				mPipeNetsParsed.Inc()
				mPipeParseQueue.Inc()
				mPipeInflight.Inc()
			}
			select {
			case jobs <- pipeJob{index: i, net: n, units: s.Units()}:
			case <-ctx.Done():
				if track {
					mPipeParseQueue.Dec()
					mPipeInflight.Dec()
				}
				spef.RecycleNet(n)
				return
			}
		}
	}()

	// Stage 2 — build + analyze. Workers convert each net to its RLC
	// tree, run the closed-form sweep, summarize, and recycle the net's
	// backing arrays. guard.Run isolates panics per net, and after a
	// cancellation it short-circuits the remaining queued jobs into
	// canceled-classed per-net results — the aggregator always drains
	// `results` until the workers exit, so the unconditional send below
	// cannot deadlock.
	var wgWork sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgWork.Add(1)
		go func() {
			defer wgWork.Done()
			for job := range jobs {
				if track {
					mPipeParseQueue.Dec()
				}
				res := analyzeOne(ctx, job, track)
				if track {
					mPipeResultQueue.Inc()
				}
				results <- res
			}
		}()
	}
	go func() {
		wgWork.Wait()
		close(results)
	}()

	// Stage 3 — aggregate, on the calling goroutine. Single consumer:
	// the fold and the top-K heap need no locks. Results are reordered
	// back to stream order before folding — float sums are not
	// associative, so folding in completion order would make the report's
	// averages depend on worker scheduling by an ulp. The reorder buffer
	// holds at most the in-flight count (2×depth + workers), so it does
	// not disturb the flat-memory property.
	agg := timing.NewChipAggregator(cfg.TopK)
	stats := PipelineStats{
		FailedByClass: map[string]int{},
		Workers:       workers,
		QueueDepth:    depth,
	}
	var memStats runtime.MemStats
	const sampleEvery = 1024
	fold := func(res NetResult) {
		if res.Err != nil {
			stats.Failed++
			stats.FailedByClass[guard.ClassName(res.Err)]++
			if track {
				mPipeNetFailures.Inc()
			}
		} else {
			stats.Nets++
			stats.Sections += res.Summary.Sections
			agg.Add(res.Summary)
		}
		if cfg.OnNet != nil {
			cfg.OnNet(res)
		}
		if (stats.Nets+stats.Failed)%sampleEvery == 0 {
			runtime.ReadMemStats(&memStats)
			if memStats.HeapInuse > stats.PeakHeap {
				stats.PeakHeap = memStats.HeapInuse
			}
		}
	}
	pending := make(map[int]NetResult, depth)
	next := 0
	for res := range results {
		if track {
			mPipeResultQueue.Dec()
			mPipeInflight.Dec()
		}
		pending[res.Index] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			fold(r)
		}
	}
	// After a clean run the buffer is empty; a mid-stream abort can leave
	// a gap (a parsed net dropped at cancellation), so flush stragglers
	// in index order to keep even the aborted report deterministic.
	if len(pending) > 0 {
		rest := make([]int, 0, len(pending))
		for i := range pending {
			rest = append(rest, i)
		}
		sort.Ints(rest)
		for _, i := range rest {
			fold(pending[i])
		}
	}
	wgParse.Wait()

	runtime.ReadMemStats(&memStats)
	if memStats.HeapInuse > stats.PeakHeap {
		stats.PeakHeap = memStats.HeapInuse
	}
	stats.PeakRSS = readPeakRSS()
	stats.Wall = time.Since(t0)
	if secs := stats.Wall.Seconds(); secs > 0 {
		stats.NetsPerSec = float64(stats.Nets+stats.Failed) / secs
	}
	if track {
		mPipeWall.ObserveSince(t0)
		if stats.PeakRSS > 0 {
			mPipePeakRSS.Set(int64(stats.PeakRSS))
		}
	}

	var err error
	switch {
	case parseErr != nil:
		err = parseErr
	case ctx.Err() != nil:
		err = guard.Check(ctx)
	}
	return agg.Report(), stats, err
}

// analyzeOne runs one net through tree build → delay-only sweep →
// summary, recycling the net on every path (the net must not be touched
// after this call).
func analyzeOne(ctx context.Context, job pipeJob, track bool) NetResult {
	res := NetResult{Index: job.index, Net: job.net.Name}
	var tA time.Time
	if track {
		tA = time.Now()
	}
	err := guard.Run(ctx, func(ctx context.Context) error {
		tree, err := job.net.Tree(job.units)
		if err != nil {
			return err
		}
		nodes, err := core.AnalyzeTreeDelays(ctx, tree)
		if err != nil {
			return err
		}
		ns, err := timing.SummarizeNet(job.net.Name, nodes)
		if err != nil {
			return err
		}
		res.Summary = ns
		return nil
	})
	spef.RecycleNet(job.net)
	res.Err = err
	if track {
		mPipeAnalyzeLatency.ObserveSince(tA)
		// One wide event per pipeline unit of work: failed nets land in
		// the flight recorder's capture buffer (Status 0 + Class counts
		// as interesting), healthy ones ride the ring for /v1/debug
		// style dumps. Gated on track so the dormant hot path stays at
		// zero flight-recorder cost.
		dur := time.Since(tA).Nanoseconds()
		ev := obs.WideEvent{
			StartNS: tA.UnixNano(),
			Route:   "pipeline.net",
			Net:     res.Net, // job.net is recycled; res captured the name
			TotalNS: dur,
		}
		ev.AddStage("analyze", time.Duration(dur))
		if err != nil {
			ev.Class = guard.ClassName(err)
			ev.Err = err.Error()
		}
		obs.DefaultFlight().Record(&ev, nil)
	}
	return res
}

// readPeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM), or 0 where that is unavailable. A kernel
// high-water mark is the honest "did memory stay flat" witness: heap
// samples miss allocator and stack overhead.
func readPeakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
