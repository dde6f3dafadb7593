// Command bench2text converts a `go test -json` event stream (stdin) into
// the plain benchmark text format that benchstat consumes (stdout). It
// keeps the machine-readable JSON baseline and the benchstat baseline in
// lockstep from a single benchmark run:
//
//	go test -run=NONE -bench=. -json . > bench-baseline.json
//	bench2text < bench-baseline.json > bench-baseline.txt
//	# later: benchstat bench-baseline.txt new.txt
//
// Only benchmark-relevant output events pass through: the goos/goarch/pkg/
// cpu header, Benchmark result lines (including their wrapped continuation
// metrics), and the PASS/ok trailer benchstat tolerates. Test logs and
// progress events are dropped.
//
// With -compare, bench2text instead reads two saved JSON baselines and
// prints a median ns/op delta table for the benchmarks they share:
//
//	bench2text -compare BENCH_PR5.json BENCH_PR10.json
//
// This is how the repository's committed BENCH_PR<n> artifacts are read
// against each other across PRs without needing benchstat installed.
//
// With -overhead, bench2text is an overhead gate: it reads a test2json
// stream of a paired benchmark run on stdin, compares the median ns/op
// of the benchmark against its baseline twin, and exits non-zero when
// the overhead exceeds -max percent:
//
//	go test -run=NONE -bench 'BenchmarkAnalyzeTreeParallel$|BenchmarkAnalyzeTreeParallelBaseline$' \
//	    -count=5 -json . | bench2text -overhead BenchmarkAnalyzeTreeParallel \
//	    -baseline BenchmarkAnalyzeTreeParallelBaseline -max 2
//
// Medians across -count runs keep one noisy sample from failing the
// gate; `make obs-check` and `make fault-check` wire it up.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// event is the subset of the test2json schema bench2text needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

func main() {
	compareMode := flag.Bool("compare", false,
		"compare two saved baselines: bench2text -compare old.json new.json")
	overheadOf := flag.String("overhead", "", "gate this benchmark's median ns/op against -baseline (test2json on stdin)")
	base := flag.String("baseline", "", "baseline benchmark of the -overhead gate")
	maxPct := flag.Float64("max", 2.0, "maximum tolerated -overhead, percent")
	flag.Parse()
	var err error
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2text -compare old.json new.json")
			os.Exit(2)
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *overheadOf != "":
		if *base == "" || flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: bench2text -overhead <bench> -baseline <bench> [-max pct] < test2json")
			os.Exit(2)
		}
		err = overhead(os.Stdin, os.Stdout, *overheadOf, *base, *maxPct)
	default:
		err = convert(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2text: %v\n", err)
		os.Exit(1)
	}
}

// compareFiles prints a median-ns/op delta table for the benchmark names
// present in both saved test2json baselines.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldSamples, err := benchSamples(oldPath)
	if err != nil {
		return err
	}
	newSamples, err := benchSamples(newPath)
	if err != nil {
		return err
	}
	var shared []string
	for name := range oldSamples {
		if _, ok := newSamples[name]; ok {
			shared = append(shared, name)
		}
	}
	if len(shared) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	sort.Strings(shared)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\told ns/op\tnew ns/op\tdelta\n")
	for _, name := range shared {
		o := median(oldSamples[name])
		n := median(newSamples[name])
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\n", name, o, n, 100*(n-o)/o)
	}
	return tw.Flush()
}

// benchSamples extracts ns/op samples per benchmark name from a saved
// test2json stream.
func benchSamples(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := readSamples(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return samples, nil
}

// readSamples extracts ns/op samples per benchmark name (the -procs
// suffix stripped, so runs at different GOMAXPROCS line up) from a
// test2json stream.
func readSamples(r io.Reader) (map[string][]float64, error) {
	// Reuse the benchstat distillation, which already reassembles result
	// lines test2json split across events, then parse its text output.
	var text strings.Builder
	if err := convert(r, &text); err != nil {
		return nil, err
	}
	samples := make(map[string][]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		nsOp := math.NaN()
		for i := 2; i < len(fields); i++ {
			if fields[i] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
				}
				nsOp = v
				break
			}
		}
		if math.IsNaN(nsOp) {
			continue // name-only line or a result without timings
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		samples[name] = append(samples[name], nsOp)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark results found")
	}
	return samples, nil
}

// overhead compares the median ns/op of instr against base in a
// test2json stream and fails when instr is more than maxPct percent
// slower.
func overhead(r io.Reader, w io.Writer, instr, base string, maxPct float64) error {
	samples, err := readSamples(r)
	if err != nil {
		return err
	}
	for _, name := range []string{instr, base} {
		if len(samples[name]) == 0 {
			return fmt.Errorf("no samples for %s", name)
		}
	}
	iv, bv := samples[instr], samples[base]
	im, bm := median(iv), median(bv)
	if bm <= 0 {
		return fmt.Errorf("nonsense baseline median %g ns/op", bm)
	}
	pct := 100 * (im - bm) / bm
	fmt.Fprintf(w, "bench2text: %s median %.0f ns/op, %s median %.0f ns/op, overhead %+.2f%% (budget %.2f%%, %d+%d samples)\n",
		instr, im, base, bm, pct, maxPct, len(iv), len(bv))
	if pct > maxPct {
		return fmt.Errorf("overhead %.2f%% exceeds the %.2f%% budget", pct, maxPct)
	}
	return nil
}

// median of the samples; the mean of the central pair for even counts,
// matching benchstat's summary statistic closely enough for delta tables.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func convert(r io.Reader, w io.Writer) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	out := bufio.NewWriter(w)
	defer out.Flush()
	// test2json splits a single text line across events when the bench
	// name is flushed before its timings ("BenchmarkFoo \t" then
	// " 100\t 12 ns/op\n"), so a continuation event inherits the keep/drop
	// decision made at its line's start.
	kept, midline := false, false
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("malformed test2json line %q: %w", in.Text(), err)
		}
		if ev.Action != "output" {
			continue
		}
		decide := keep(ev.Output)
		if midline {
			decide = kept
		}
		if decide {
			if _, err := out.WriteString(ev.Output); err != nil {
				return err
			}
		}
		kept = decide
		midline = !strings.HasSuffix(ev.Output, "\n")
	}
	return in.Err()
}

// keep reports whether an output line belongs in a benchstat baseline.
func keep(s string) bool {
	for _, prefix := range []string{
		"goos:", "goarch:", "pkg:", "cpu:",
		"Benchmark",
		"PASS", "ok ",
	} {
		if strings.HasPrefix(s, prefix) {
			return true
		}
	}
	// Benchmark result lines report extra metrics (e.g. ns/section) on the
	// same line; wrapped sub-benchmark names are always Benchmark-prefixed,
	// so nothing else is needed.
	return false
}
