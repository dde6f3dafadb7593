package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
)

// genSPEF writes a deterministic multi-net SPEF design: net i is a
// three-section tree (driver → mid → two sinks) with values varied by
// index. When badEvery > 0, every badEvery-th net has no driving pin
// (two inputs, no output) — parseable, but Tree() must reject it, which
// is exactly the per-net failure the pipeline has to isolate.
func genSPEF(nets, badEvery int) string {
	var b strings.Builder
	b.WriteString(`*SPEF "IEEE 1481-1998"
*DESIGN "pipe_test"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 OHM
*L_UNIT 1 NH

`)
	for i := 0; i < nets; i++ {
		name := fmt.Sprintf("n%05d", i)
		bad := badEvery > 0 && i%badEvery == badEvery-1
		drvDir := "O"
		if bad {
			drvDir = "I"
		}
		r1 := 5 + float64(i%17)
		r2 := 10 + float64(i%7)
		l := 0.1 + float64(i%5)*0.05
		c := 0.01 + float64(i%9)*0.005
		fmt.Fprintf(&b, "*D_NET %s %g\n*CONN\n*I d%d:Z %s\n*I s%da:A I\n*I s%db:A I\n",
			name, 3*c, i, drvDir, i, i)
		fmt.Fprintf(&b, "*CAP\n1 %s:1 %g\n2 s%da:A %g\n3 s%db:A %g\n", name, c, i, c, i, c)
		fmt.Fprintf(&b, "*RES\n1 d%d:Z %s:1 %g\n2 %s:1 s%da:A %g\n3 %s:1 s%db:A %g\n",
			i, name, r1, name, i, r2, name, i, r2+1)
		fmt.Fprintf(&b, "*INDUC\n1 d%d:Z %s:1 %g\n2 %s:1 s%da:A %g\n*END\n\n",
			i, name, l, name, i, l/2)
	}
	return b.String()
}

// twinSummaries runs the slow twin — spef.Parse → Net.Tree →
// core.AnalyzeTreeCtx → timing.SummarizeNet — over the same text and
// returns the per-net summaries by name (nets that fail are absent).
func twinSummaries(t *testing.T, text string) map[string]timing.NetSummary {
	t.Helper()
	f, err := spef.ParseString(text)
	if err != nil {
		t.Fatalf("twin parse: %v", err)
	}
	out := make(map[string]timing.NetSummary, len(f.Nets))
	for _, n := range f.Nets {
		tree, err := n.Tree(f.Units)
		if err != nil {
			continue
		}
		nodes, err := core.AnalyzeTreeCtx(context.Background(), tree)
		if err != nil {
			continue
		}
		ns, err := timing.SummarizeNet(n.Name, nodes)
		if err != nil {
			continue
		}
		out[n.Name] = ns
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSummary(a, b timing.NetSummary) bool {
	return a.Net == b.Net && a.Sections == b.Sections && a.Sinks == b.Sinks &&
		a.CritSink == b.CritSink && a.PathLen == b.PathLen && a.Degraded == b.Degraded &&
		sameBits(a.MaxDelay, b.MaxDelay) && sameBits(a.AvgDelay, b.AvgDelay) &&
		sameBits(a.Stretch, b.Stretch)
}

// TestPipelineBitIdentity: every net summary the concurrent pipeline
// produces must equal the slow twin's bit-for-bit, and the chip report
// must equal the one folded from the twin summaries — the streaming path
// buys throughput, never different numbers.
func TestPipelineBitIdentity(t *testing.T) {
	text := genSPEF(300, 0)
	want := twinSummaries(t, text)

	var mu sync.Mutex
	got := map[string]timing.NetSummary{}
	report, stats, err := RunPipeline(context.Background(), strings.NewReader(text), PipelineConfig{
		Workers: 4,
		TopK:    16,
		OnNet: func(res NetResult) {
			mu.Lock()
			defer mu.Unlock()
			if res.Err != nil {
				t.Errorf("net %q (index %d) failed: %v", res.Net, res.Index, res.Err)
				return
			}
			got[res.Net] = res.Summary
		},
	})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if stats.Nets != 300 || stats.Failed != 0 {
		t.Fatalf("stats = %d nets, %d failed; want 300, 0", stats.Nets, stats.Failed)
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline yielded %d summaries, twin %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("net %q missing from pipeline results", name)
		}
		if !sameSummary(g, w) {
			t.Fatalf("net %q differs:\npipeline %+v\ntwin     %+v", name, g, w)
		}
	}

	twin := timing.NewChipAggregator(16)
	f, _ := spef.ParseString(text)
	for _, n := range f.Nets { // stream order — the pipeline reorders results to match
		twin.Add(want[n.Name])
	}
	tr := twin.Report()
	if report.Nets != tr.Nets || report.Sinks != tr.Sinks || report.Sections != tr.Sections ||
		report.CritNet != tr.CritNet || report.CritSink != tr.CritSink ||
		!sameBits(report.MaxDelay, tr.MaxDelay) || !sameBits(report.AvgMaxDelay, tr.AvgMaxDelay) ||
		!sameBits(report.AvgDelay, tr.AvgDelay) || !sameBits(report.MaxStretch, tr.MaxStretch) {
		t.Fatalf("chip report differs:\npipeline %+v\ntwin     %+v", report, tr)
	}
	if len(report.Critical) != len(tr.Critical) {
		t.Fatalf("top-K size %d vs %d", len(report.Critical), len(tr.Critical))
	}
	for i := range tr.Critical {
		if !sameSummary(report.Critical[i], tr.Critical[i]) {
			t.Fatalf("top-K[%d] differs: %+v vs %+v", i, report.Critical[i], tr.Critical[i])
		}
	}
}

// TestPipelineFailureIsolation: a net the tree builder rejects must not
// stop the stream — the other nets still analyze, the failure is counted
// and classified, and OnNet sees it with its error.
func TestPipelineFailureIsolation(t *testing.T) {
	const nets, badEvery = 60, 5
	text := genSPEF(nets, badEvery)
	wantBad := nets / badEvery

	var mu sync.Mutex
	var failed []NetResult
	report, stats, err := RunPipeline(context.Background(), strings.NewReader(text), PipelineConfig{
		Workers: 3,
		TopK:    4,
		OnNet: func(res NetResult) {
			if res.Err != nil {
				mu.Lock()
				failed = append(failed, res)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if stats.Failed != wantBad || stats.Nets != nets-wantBad {
		t.Fatalf("stats = %d ok, %d failed; want %d, %d", stats.Nets, stats.Failed, nets-wantBad, wantBad)
	}
	if len(failed) != wantBad {
		t.Fatalf("OnNet saw %d failures, want %d", len(failed), wantBad)
	}
	for _, res := range failed {
		if (res.Index+1)%badEvery != 0 {
			t.Fatalf("net index %d failed; only every %dth net is bad", res.Index, badEvery)
		}
		if !strings.Contains(res.Err.Error(), "no driving pin") {
			t.Fatalf("unexpected failure for %q: %v", res.Net, res.Err)
		}
	}
	total := 0
	for _, n := range stats.FailedByClass {
		total += n
	}
	if total != wantBad {
		t.Fatalf("FailedByClass sums to %d, want %d: %v", total, wantBad, stats.FailedByClass)
	}
	if stats.FailedByClass["topology"] != wantBad {
		t.Fatalf("FailedByClass = %v, want every failure classed topology", stats.FailedByClass)
	}
	if report.Nets != nets-wantBad {
		t.Fatalf("report folded %d nets, want %d", report.Nets, nets-wantBad)
	}
}

// TestPipelineParseError: a malformed stream is terminal — the run stops,
// the error carries the parse class, and what was already aggregated is
// still reported.
func TestPipelineParseError(t *testing.T) {
	text := genSPEF(10, 0) + "*D_NET broken\n"
	_, _, err := RunPipeline(context.Background(), strings.NewReader(text), PipelineConfig{Workers: 2})
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !errors.Is(err, guard.ErrParse) {
		t.Fatalf("error class = %v, want guard.ErrParse", err)
	}
}

func TestPipelineLimits(t *testing.T) {
	text := genSPEF(10, 0)
	_, stats, err := RunPipeline(context.Background(), strings.NewReader(text), PipelineConfig{
		Workers: 2,
		Limits:  guard.Limits{MaxNets: 3},
	})
	if !errors.Is(err, guard.ErrLimit) {
		t.Fatalf("error = %v, want guard.ErrLimit", err)
	}
	if stats.Nets+stats.Failed > 3 {
		t.Fatalf("processed %d nets past a MaxNets=3 limit", stats.Nets+stats.Failed)
	}
}

func TestPipelineCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunPipeline(ctx, strings.NewReader(genSPEF(50, 0)), PipelineConfig{Workers: 2})
	if err == nil {
		t.Fatal("expected an error from a canceled context")
	}
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error class = %v, want guard.ErrCanceled", err)
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	report, stats, err := RunPipeline(context.Background(),
		strings.NewReader("*SPEF \"IEEE 1481-1998\"\n*T_UNIT 1 NS\n"), PipelineConfig{})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if report.Nets != 0 || stats.Nets != 0 || stats.Failed != 0 {
		t.Fatalf("empty input produced report %+v stats %+v", report, stats)
	}
	if stats.Workers <= 0 || stats.QueueDepth <= 0 {
		t.Fatalf("defaults not applied: %+v", stats)
	}
}
