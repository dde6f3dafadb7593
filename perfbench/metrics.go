package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The two lists below
// are the benchmark's whole vocabulary: BENCHMARK.json at the repository
// root lists the same names (a test checks the two agree), and every run
// reports every name of its list, so runs of different workloads and
// commits line up metric by metric.
type metricSpec struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees, defined on every workload.
// An "op" is the workload's unit of work: one net for chip, one request
// for serve-read and serve-write, one optimizer call for opt.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"rss_p90_mib", "MiB"},
	{"alloc_kb_per_op", "KiB/op"},
	{"cpu_us_per_op", "us/op"},
}

// perLayer is the traced run's ledger. A layer the workload does not
// drive reports 0: the workload spends nothing there.
var perLayer = []metricSpec{
	// Client-observed per-route and per-kind latencies.
	{"nets_per_s", "nets/s"},
	{"delay_p50_us", "us"},
	{"delay_p99_us", "us"},
	{"analyze_p50_us", "us"},
	{"batch_p50_us", "us"},
	{"edit_p50_us", "us"},
	{"edit_p99_us", "us"},
	{"register_p50_us", "us"},
	{"sizing_p50_ms", "ms"},
	{"repeater_p50_ms", "ms"},
	{"topology_p50_ms", "ms"},
	{"error_ratio", "ratio"},

	// chip: serial replay of the same file through the public functions.
	{"spef.parse_us_per_net", "us"},
	{"spef.parse_mb_per_s", "MB/s"},
	{"spef.parse_alloc_kb_per_net", "KiB"},
	{"spef.tree_us_per_net", "us"},
	{"spef.tree_alloc_kb_per_net", "KiB"},
	{"rlctree.sums_ns_per_section", "ns"},
	{"core.closed_forms_ns_per_node", "ns"},
	{"core.closed_forms_alloc_kb_per_net", "KiB"},
	{"timing.summarize_ns_per_net", "ns"},
	{"timing.fold_ns_per_net", "ns"},
	{"chip.serial_us_per_net", "us"},
	{"chip.untraced_serial_us_per_net", "us"},
	{"chip.trace_overhead", "ratio"},
	{"chip.ledger_coverage", "ratio"},
	{"engine.pipeline_efficiency", "ratio"},
	{"engine.parse_bound_share", "ratio"},
	{"engine.pipe_parse_p50_us", "us"},
	{"engine.pipe_analyze_p50_us", "us"},

	// serve: in-process handler replay, client codec, twin registry.
	{"eedclient.encode_us", "us"},
	{"eedclient.decode_us", "us"},
	{"eedclient.transport_us", "us"},
	{"eedsrv.delay_handler_us", "us"},
	{"eedsrv.analyze_handler_us", "us"},
	{"eedsrv.batch_handler_us", "us"},
	{"eedsrv.edit_handler_us", "us"},
	{"eedsrv.register_handler_us", "us"},
	{"eedsrv.encode_ns_per_node", "ns"},
	{"engine.registry_lookup_ns", "ns"},
	{"engine.session_analyze_at_us", "us"},
	{"engine.session_analyze_us", "us"},
	{"engine.session_edit_analyze_us", "us"},
	{"engine.registry_rekey_ns", "ns"},
	{"engine.registry_put_us", "us"},
	{"rlctree.parse_ns_per_section", "ns"},
	{"engine.registry_hit_ratio", "ratio"},
	{"engine.registry_evictions_per_op", "ratio"},
	{"engine.cache_hit_ratio", "ratio"},
	{"incr.resyncs_per_edit", "ratio"},

	// opt: allocation, exact work counts and program counters per call.
	{"opt.sizing_alloc_kb", "KiB"},
	{"opt.repeater_alloc_kb", "KiB"},
	{"opt.topology_alloc_kb", "KiB"},
	{"opt.sizing_sweeps_per_opt", "count"},
	{"opt.repeater_evals_per_opt", "count"},
	{"opt.topology_evals_per_opt", "count"},
	{"incr.queries_per_opt", "count"},
	{"incr.query_p50_ns", "ns"},
	{"incr.structural_ops_per_opt", "count"},
	{"incr.structural_p50_ns", "ns"},
	{"incr.resyncs_per_opt", "count"},
	{"engine.session_delay_at_ns", "ns"},
	{"engine.session_attach_detach_ns", "ns"},

	// Every workload.
	{"peak_rss_mib", "MiB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_live_mib", "MiB"},
	{"ledger.counter_gaps", "count"},
}

func specFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// tally counts a run's operations: every attempted op, and every op that
// failed, whether by a transport or HTTP error or by an output that did
// not match its oracle.
type tally struct {
	attempted, failed int64
	mismatches        int64 // subset of failed: wrong outputs
	notes             []string
}

// fail records one failed op. Only the first few reasons are kept.
func (t *tally) fail(mismatch bool, format string, args ...any) {
	t.failed++
	if mismatch {
		t.mismatches++
	}
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// childResult is what a workload process hands back to the launcher.
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Mismatches int64              `json:"mismatches"`
	Metrics    map[string]float64 `json:"metrics"`
	Report     []string           `json:"report"`
}

// finalResult is the last line of the launcher's standard output.
type finalResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeFinal prints the result line, with every metric of spec. A metric
// the run did not produce is an error in the benchmark, not a zero.
func writeFinal(w io.Writer, spec []metricSpec, r childResult) error {
	out := finalResult{
		Correct:   r.Failed == 0 && r.Mismatches == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	if out.Attempted < 1 {
		return fmt.Errorf("run attempted no operations")
	}
	for _, m := range spec {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it is reportable: a tail percentile is only reported when at
// least minBeyond samples lie strictly above its rank, so a p99 needs
// 1000 samples. The median (p = 0.5) of a non-empty set is always
// reportable in practice.
func tailQuantile(xs []float64, p float64) (float64, bool) {
	const minBeyond = 10
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if n-int(math.Ceil(p*float64(n))) < minBeyond {
		return 0, false
	}
	return quantileOf(sortedCopy(xs), p), true
}

// p99 is the 99th percentile of xs, or 0 when fewer than ten samples lie
// beyond it.
func p99(xs []float64) float64 {
	v, ok := tailQuantile(xs, 0.99)
	if !ok {
		return 0
	}
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
