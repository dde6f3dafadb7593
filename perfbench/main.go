// Command perfbench is the repository's benchmark. One invocation runs
// one seeded workload against the code as it stands and prints, as the
// last line of its standard output, a JSON object with the run's
// correctness, its attempted and failed operation counts, and every
// metric of its kind by name with its unit:
//
//	perfbench --workload chip|serve-read|serve-write|opt --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with the program's shipped
// defaults; --trace 1 is the separate traced run that times calls into
// each layer's public functions and reports the per-layer ledger.
//
// The launcher renders the seeded inputs (cached under
// .bench_build/inputs), then runs the workload in a child process of its
// own, so that the child's peak RSS is the workload's alone. End-to-end
// runs start the child several extra times for set-up only and report the
// median set-up time. Run it through run.sh, which builds it first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupOnlyRuns is how many extra set-up-only processes an end-to-end run
// starts; with the measured run's own set-up that makes five samples.
const setupOnlyRuns = 4

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	child     bool
	setupOnly bool
	spawnNS   int64  // launcher's wall clock when it started the child
	input     string // rendered input path, for the child
}

// workloads maps each workload name to its child-side runner.
var workloads = map[string]func(config) (childResult, error){
	"chip":        runChip,
	"serve-read":  runServe,
	"serve-write": runServe,
	"opt":         runOpt,
}

// nproc is the worker, client and connection budget of every workload.
func nproc() int { return runtime.NumCPU() }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "chip, serve-read, serve-write or opt")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	fs.BoolVar(&cfg.child, "child", false, "internal: run the workload in this process")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: stop after set-up")
	fs.Int64Var(&cfg.spawnNS, "spawn-ns", 0, "internal: launcher start time")
	fs.StringVar(&cfg.input, "input", "", "internal: rendered input")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.seconds > 120 {
		return cfg, fmt.Errorf("--seconds must be in 1..120, got %d", cfg.seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	cfg.trace = *traceFlag == 1
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if cfg.child {
		return childMain(cfg, stdout, stderr)
	}
	if cfg.input, err = renderInput(cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var setups []float64
	if !cfg.trace {
		for i := 0; i < setupOnlyRuns; i++ {
			r, err := spawn(cfg, true, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: set-up run %d: %v\n", i, err)
				return 1
			}
			setups = append(setups, r.SetupS)
		}
	}
	r, err := spawn(cfg, false, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !cfg.trace {
		setups = append(setups, r.SetupS)
		r.Metrics["setup_s"] = median(setups)
		r.Report = append(r.Report, fmt.Sprintf("setup_s: median of %d set-ups, each from process start to the first timed operation", len(setups)),
			fmt.Sprintf("rss_p90_mib over 20 ms samples of the timed run; its peak (VmHWM) was %.1f MiB", r.Metrics["peak_rss_mib"]))
	}
	spec := specFor(cfg.trace)
	fmt.Fprintf(stdout, "# perfbench %s seed %d, %d s, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, line := range r.Report {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	for _, m := range spec {
		fmt.Fprintf(stdout, "# %-36s %16.6g %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	fmt.Fprintf(stdout, "# attempted %d, failed %d (%d wrong outputs), error_ratio %g\n",
		r.Attempted, r.Failed, r.Mismatches, ratio(float64(r.Failed), float64(r.Attempted)))
	if err := writeFinal(stdout, spec, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// renderInput renders (or finds cached) the workload's seeded input.
func renderInput(cfg config) (string, error) {
	switch cfg.workload {
	case "chip":
		path, _, err := renderChipInput(cfg.seed)
		return path, err
	case "opt":
		return renderOptInput(cfg.seed, nproc())
	default:
		return renderServeInput(cfg.workload, cfg.seed)
	}
}

// spawn runs the workload in a child process and returns its result.
func spawn(cfg config, setupOnly bool, stderr io.Writer) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-input", cfg.input,
		"-setup-only=" + strconv.FormatBool(setupOnly)}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	// A launcher killed from outside takes its workload process with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Args = append(cmd.Args, append(args, "-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("workload process printed no result: %w", err)
	}
	return res, nil
}

// childMain runs one workload in this process and prints its result.
func childMain(cfg config, stdout, stderr io.Writer) int {
	startup := time.Since(time.Unix(0, cfg.spawnNS))
	if cfg.spawnNS == 0 || startup < 0 {
		startup = 0
	}
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", cfg.workload, err)
		return 1
	}
	res.SetupS += startup.Seconds()
	if res.Metrics == nil {
		res.Metrics = map[string]float64{}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// fold copies a tally into the result. A traced run also completes the
// per-layer metric set: every layer the workload does not drive reports
// 0, error_ratio is the tally's and peak_rss_mib the traced process's.
func (r *childResult) fold(t tally, trace bool) {
	r.Attempted, r.Failed, r.Mismatches = t.attempted, t.failed, t.mismatches
	for _, n := range t.notes {
		r.Report = append(r.Report, "failure: "+n)
	}
	if !trace {
		return
	}
	r.Metrics["error_ratio"] = t.errorRatio()
	r.Metrics["peak_rss_mib"] = peakRSSMiB()
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = 0
		}
	}
}
