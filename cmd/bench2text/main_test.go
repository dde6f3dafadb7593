package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const stream = `{"Action":"start","Package":"eedtree"}
{"Action":"output","Package":"eedtree","Output":"goos: linux\n"}
{"Action":"output","Package":"eedtree","Output":"goarch: amd64\n"}
{"Action":"output","Package":"eedtree","Output":"pkg: eedtree\n"}
{"Action":"output","Package":"eedtree","Output":"cpu: Intel\n"}
{"Action":"run","Package":"eedtree","Test":"BenchmarkFoo"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"BenchmarkFoo\n"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"some stray test log\n"}
{"Action":"output","Package":"eedtree","Test":"BenchmarkFoo","Output":"BenchmarkFoo-8   \t 1000\t 1234 ns/op\t 5.0 ns/section\n"}
{"Action":"output","Package":"eedtree","Output":"PASS\n"}
{"Action":"output","Package":"eedtree","Output":"ok  \teedtree\t1.2s\n"}
{"Action":"pass","Package":"eedtree"}
`

func TestConvertKeepsBenchstatLines(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"goos: linux\n", "goarch: amd64\n", "pkg: eedtree\n", "cpu: Intel\n",
		"BenchmarkFoo-8   \t 1000\t 1234 ns/op\t 5.0 ns/section\n",
		"PASS\n", "ok  \teedtree\t1.2s\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "stray test log") {
		t.Errorf("test noise leaked into the baseline:\n%s", got)
	}
}

// TestConvertJoinsSplitBenchmarkLines: test2json flushes the benchmark name
// before its timings, splitting one text line across two output events; the
// continuation (which has no Benchmark prefix) must still be kept — and a
// split dropped line must stay dropped.
func TestConvertJoinsSplitBenchmarkLines(t *testing.T) {
	const split = `{"Action":"output","Output":"BenchmarkBar-8   \t"}
{"Action":"output","Output":" 500\t 99 ns/op\n"}
{"Action":"output","Output":"    bench_test.go:10: noisy "}
{"Action":"output","Output":"wrapped log line\n"}
{"Action":"output","Output":"PASS\n"}
`
	var out bytes.Buffer
	if err := convert(strings.NewReader(split), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if want := "BenchmarkBar-8   \t 500\t 99 ns/op\n"; !strings.Contains(got, want) {
		t.Errorf("split benchmark line not rejoined, got:\n%s", got)
	}
	if strings.Contains(got, "wrapped log line") {
		t.Errorf("split log line leaked into the baseline:\n%s", got)
	}
}

func TestConvertRejectsMalformedStream(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader("not json\n"), &out); err == nil {
		t.Fatal("malformed input must error")
	}
}

func TestConvertEmptyStream(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(""), &out); err != nil || out.Len() != 0 {
		t.Fatalf("empty stream: err=%v out=%q", err, out.String())
	}
}

// writeStream saves a synthetic test2json baseline with one output event
// per benchmark sample line.
func writeStream(t *testing.T, lines ...string) string {
	t.Helper()
	var b bytes.Buffer
	for _, line := range lines {
		ev, err := json.Marshal(event{Action: "output", Output: line + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ev)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesDeltaTable(t *testing.T) {
	old := writeStream(t,
		"BenchmarkFast-8 \t 100\t 200 ns/op",
		"BenchmarkFast-8 \t 100\t 100 ns/op",
		"BenchmarkFast-8 \t 100\t 120 ns/op", // median 120
		"BenchmarkSlow-8 \t 10\t 1000 ns/op",
		"BenchmarkOldOnly-8 \t 10\t 5 ns/op",
	)
	now := writeStream(t,
		"BenchmarkFast-16 \t 100\t 60 ns/op", // -procs suffix must not split the name
		"BenchmarkSlow-8 \t 10\t 2000 ns/op",
		"BenchmarkNewOnly-8 \t 10\t 7 ns/op",
	)
	var out bytes.Buffer
	if err := compareFiles(old, now, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkFast", "120", "60", "-50.0%",
		"BenchmarkSlow", "1000", "2000", "+100.0%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare table missing %q:\n%s", want, got)
		}
	}
	for _, reject := range []string{"BenchmarkOldOnly", "BenchmarkNewOnly"} {
		if strings.Contains(got, reject) {
			t.Errorf("unshared benchmark %q leaked into the table:\n%s", reject, got)
		}
	}
}

func TestCompareFilesErrors(t *testing.T) {
	withBench := writeStream(t, "BenchmarkFoo-8 \t 10\t 10 ns/op")
	noOverlap := writeStream(t, "BenchmarkBar-8 \t 10\t 10 ns/op")
	empty := writeStream(t, "PASS")
	var out bytes.Buffer
	if err := compareFiles(withBench, noOverlap, &out); err == nil {
		t.Fatal("disjoint baselines must error")
	}
	if err := compareFiles(withBench, empty, &out); err == nil {
		t.Fatal("baseline without benchmarks must error")
	}
	if err := compareFiles(withBench, filepath.Join(t.TempDir(), "absent.json"), &out); err == nil {
		t.Fatal("missing file must error")
	}
}

// splitStream builds a test2json event stream from benchmark output
// lines, splitting each line across two events the way test2json does
// (name flushed first, timings later).
func splitStream(t *testing.T, lines ...string) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, line := range lines {
		i := len(line) / 2
		for _, chunk := range []string{line[:i], line[i:] + "\n"} {
			if err := enc.Encode(event{Action: "output", Output: chunk}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

func TestOverheadWithinBudget(t *testing.T) {
	in := splitStream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40400000 ns/op\t      2465 ns/section",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40100000 ns/op\t      2447 ns/section",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40900000 ns/op\t      2496 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op\t      2441 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  39800000 ns/op\t      2429 ns/section",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40200000 ns/op\t      2453 ns/section",
	)
	var out strings.Builder
	err := overhead(strings.NewReader(in), &out,
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err != nil {
		t.Fatalf("1%% overhead must pass a 2%% budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "overhead +1.00%") {
		t.Errorf("report missing overhead figure:\n%s", out.String())
	}
}

func TestOverheadOverBudget(t *testing.T) {
	in := splitStream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  44000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op",
	)
	err := overhead(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("10%% overhead must fail a 2%% budget, got %v", err)
	}
}

// The median keeps one outlier sample from failing the gate.
func TestOverheadMedianRobustToOutlier(t *testing.T) {
	in := splitStream(t,
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40000000 ns/op",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  40100000 ns/op",
		"BenchmarkAnalyzeTreeParallel-8         \t      30\t  90000000 ns/op", // GC hiccup
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40000000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  39900000 ns/op",
		"BenchmarkAnalyzeTreeParallelBaseline-8 \t      30\t  40100000 ns/op",
	)
	err := overhead(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err != nil {
		t.Fatalf("median must shrug off one outlier: %v", err)
	}
}

func TestOverheadMissingBenchmark(t *testing.T) {
	in := splitStream(t, "BenchmarkSomethingElse-8 \t 10\t 100 ns/op")
	err := overhead(strings.NewReader(in), &strings.Builder{},
		"BenchmarkAnalyzeTreeParallel", "BenchmarkAnalyzeTreeParallelBaseline", 2.0)
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("missing benchmark must be reported, got %v", err)
	}
}

func TestOverheadMalformedJSON(t *testing.T) {
	err := overhead(strings.NewReader("not json\n"), &strings.Builder{}, "a", "b", 2.0)
	if err == nil {
		t.Fatal("malformed input must fail")
	}
}
