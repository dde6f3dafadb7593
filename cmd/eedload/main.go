// Command eedload is the closed-loop harness for the eedd delay service.
// Its workers drive a mixed request stream (point queries, whole-tree
// sweeps, incremental edits, batches) through internal/eedclient and
// check every successful payload bit for bit against a locally computed
// core.AnalyzeTree oracle, outside the timed window. Each worker edits a
// private variant of the net (an edit re-keys its net, which would pull
// a shared net out from under the readers) and checks it against a local
// replica.
//
// Load mode (the default) sends one attempt per request with the
// circuit breaker off, so the latency percentiles describe the server.
// Chaos mode (-chaos) uses the resilient client (4 retries, 500 ms
// backoff cap, 300 ms breaker cooldown) through a seeded schedule of
// injected faults and a server restart, then a recovery phase.
//
// The server is a running daemon (-addr, load mode only), a spawned eedd
// (-eedd), or an in-process server on a loopback listener (the default).
// Gates, in both modes: zero bit-incorrect payloads, failed ops within
// -budget percent, and the warm point-query p50 under -p50-gate —
// measured over the run in load mode, reached within -recover-within of
// the last fault in chaos mode. With -out the report is also written to
// <out>.json and <out>.txt. Exit status: 0 all gates pass, 1 a gate
// failed or the run could not start, 2 usage.
//
// Usage:
//
//	eedload -net examples/nets/line64.tree [-addr URL | -eedd ./eedd] [-chaos] \
//	        [-d 10s] [-c 8] [-mix delay=90,analyze=5,edit=5] [-seed 1] \
//	        [-budget 1] [-p50-gate 5ms] [-recover-within 5s] [-out BENCH_PR6]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

func main() {
	os.Exit(realMain())
}

var opNames = []string{"delay", "analyze", "edit", "batch"}

// phase is one segment of the run's schedule. Spec is a faultinj spec;
// an empty spec clears all faults.
type phase struct {
	Name    string
	Frac    float64
	Spec    string
	Restart bool // restart the server instead of arming faults
	Probe   bool // measure how soon the warm p50 clears -p50-gate
}

// loadPhases is load mode's schedule: one clean phase.
var loadPhases = []phase{{Name: "load", Frac: 1}}

// schedule is chaos mode's: ramp from a clean baseline through every
// fault family, restart the server, then measure recovery. guard.panic
// and batch.cancel are deliberately absent — against an in-process
// server the fault plan is global to the harness process, and those two
// points could fire inside the harness's own oracle.
func schedule(seed int64) []phase {
	s := func(tmpl string) string { return fmt.Sprintf("seed=%d;", seed) + tmpl }
	return []phase{
		{Name: "clean", Frac: 0.10},
		{Name: "stall", Frac: 0.15, Spec: s("srv.stall:p=0.3,d=20ms")},
		{Name: "panic_drop", Frac: 0.15, Spec: s("srv.panic:p=0.03;srv.conn_drop:p=0.03")},
		{Name: "evict_storm", Frac: 0.10, Spec: s("reg.evict:p=0.05")},
		{Name: "queue_numeric", Frac: 0.15, Spec: s("srv.queue_timeout:p=0.05;sess.numeric:p=0.002,n=20")},
		{Name: "restart", Frac: 0.10, Restart: true},
		{Name: "recovery", Frac: 0.25, Probe: true},
	}
}

type config struct {
	netFile       string
	addr          string // base URL of a running eedd ("" = spawn or in-process)
	eeddPath      string // eedd binary to spawn ("" = in-process server)
	phases        []phase
	dur           time.Duration
	conc          int
	mix           map[string]int
	seed          int64
	budgetPct     float64
	p50Gate       time.Duration
	recoverWithin time.Duration
}

// chaos reports whether the schedule injects faults or restarts the
// server, which is what switches the workers to the resilient client and
// lets them heal failures.
func (c config) chaos() bool {
	for _, ph := range c.phases {
		if ph.Spec != "" || ph.Restart {
			return true
		}
	}
	return false
}

type opStats struct {
	Count         int            `json:"count"` // successful ops, each timed
	Recovered     int            `json:"recovered,omitempty"`
	Errors        int            `json:"errors"`
	ErrorsByClass map[string]int `json:"errors_by_class,omitempty"`
	P50us         float64        `json:"p50_us"`
	P90us         float64        `json:"p90_us"`
	P99us         float64        `json:"p99_us"`
	MaxUs         float64        `json:"max_us"`
	MeanUs        float64        `json:"mean_us"`
	RPS           float64        `json:"rps"`
}

type phaseStats struct {
	Name    string  `json:"name"`
	Ops     int64   `json:"ops"`
	Errors  int64   `json:"errors"`
	Elapsed float64 `json:"elapsed_s"`
}

type recovery struct {
	P50us  float64 `json:"p50_us"`  // last probed warm p50
	AfterS float64 `json:"after_s"` // since the last fault; -1 = never within -recover-within
}

type report struct {
	Net            string             `json:"net"`
	Sections       int                `json:"sections"`
	Target         string             `json:"target"` // "remote", "daemon" or "in-process"
	Addr           string             `json:"addr"`
	Chaos          bool               `json:"chaos"`
	DurationS      float64            `json:"duration_s"`
	Concurrency    int                `json:"concurrency"`
	Seed           int64              `json:"seed"`
	Mix            map[string]int     `json:"mix"`
	Phases         []phaseStats       `json:"phases"`
	Ops            map[string]opStats `json:"ops"`
	TotalRequests  int                `json:"total_requests"`
	TotalErrors    int                `json:"total_errors"`
	Recovered      int                `json:"recovered"` // failed once, healed by re-registering or waiting for health
	Throughput     float64            `json:"throughput_rps"`
	ClientRetries  uint64             `json:"client_retries"`
	BreakerTrips   uint64             `json:"breaker_trips"`
	SuccessRatePct float64            `json:"success_rate_pct"`
	BudgetPct      float64            `json:"budget_pct"`
	Mismatches     int64              `json:"mismatches"`
	MismatchSample string             `json:"mismatch_sample,omitempty"`
	P50GateUs      float64            `json:"p50_gate_us"`
	Recovery       *recovery          `json:"recovery,omitempty"`
	GateFailures   []string           `json:"gate_failures,omitempty"`
}

func realMain() int {
	cfg := config{}
	flag.StringVar(&cfg.netFile, "net", "", "tree file driven at the server (rlctree text format; required)")
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running eedd (load mode only)")
	flag.StringVar(&cfg.eeddPath, "eedd", "", "eedd binary to spawn, fault through its admin endpoint and SIGTERM-restart (empty = in-process server)")
	chaos := flag.Bool("chaos", false, "run the fault schedule with the resilient client (default: single-attempt load)")
	flag.DurationVar(&cfg.dur, "d", 10*time.Second, "run duration")
	flag.IntVar(&cfg.conc, "c", 8, "concurrent client workers")
	mixFlag := flag.String("mix", "delay=90,analyze=5,edit=5", "operation weights: delay,analyze,edit,batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the fault schedule, worker decks and clients")
	flag.Float64Var(&cfg.budgetPct, "budget", 1.0, "max percent of ops that may fail")
	flag.DurationVar(&cfg.p50Gate, "p50-gate", 5*time.Millisecond, "warm point-query p50 bound: over the run (load), or reached after the last fault (chaos)")
	flag.DurationVar(&cfg.recoverWithin, "recover-within", 5*time.Second, "chaos: how soon after the last fault the p50 gate must hold")
	out := flag.String("out", "", `output path prefix; writes <out>.json and <out>.txt ("" = stdout only)`)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eedload -net <tree-file> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || cfg.netFile == "" || cfg.dur <= 0 || cfg.conc <= 0 || cfg.budgetPct < 0 ||
		cfg.p50Gate <= 0 || cfg.recoverWithin <= 0 || (cfg.addr != "" && (cfg.eeddPath != "" || *chaos)) {
		flag.Usage()
		return 2
	}
	var err error
	if cfg.mix, err = parseMix(*mixFlag); err != nil {
		fmt.Fprintf(os.Stderr, "eedload: -mix: %v\n", err)
		flag.Usage()
		return 2
	}
	cfg.phases = loadPhases
	if *chaos {
		cfg.phases = schedule(cfg.seed)
	}

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedload: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}
	text := renderText(rep)
	fmt.Print(text)
	if *out != "" {
		js, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out+".json", append(js, '\n'), 0o644)
		}
		if err == nil {
			err = os.WriteFile(*out+".txt", []byte(text), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "eedload: -out: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "eedload: wrote %s.json and %s.txt\n", *out, *out)
	}
	if len(rep.GateFailures) > 0 {
		for _, g := range rep.GateFailures {
			fmt.Fprintf(os.Stderr, "eedload: GATE FAILED: %s\n", g)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "eedload: all gates passed")
	return 0
}

func parseMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	total := 0
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, valStr, ok := strings.Cut(kv, "=")
		if !ok || !slices.Contains(opNames, name) {
			return nil, fmt.Errorf("bad term %q (want op=weight with op in %v)", kv, opNames)
		}
		v, err := strconv.Atoi(valStr)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad weight %q", valStr)
		}
		mix[name] = v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", s)
	}
	return mix, nil
}

// ---- server control ----

// serverCtl is the server under test, one of three targets: a running
// daemon the harness does not own ("remote": no faults, no restart), a
// spawned eedd binary ("daemon": faults through its admin endpoint,
// SIGTERM restart), or eedsrv on a loopback listener ("in-process": the
// process-global fault plan, a listener bounce).
type serverCtl struct {
	target string
	base   string

	admin *eedclient.Client // registration, probes and daemon faults

	eedd string // daemon
	cmd  *exec.Cmd

	httpSrv *http.Server // in-process
	srv     *eedsrv.Server
}

func newServerCtl(cfg config) (*serverCtl, error) {
	c := &serverCtl{target: "in-process", base: "http://127.0.0.1:0", eedd: cfg.eeddPath}
	switch {
	case cfg.addr != "":
		c.target, c.base = "remote", strings.TrimSuffix(cfg.addr, "/")
	case cfg.eeddPath != "":
		c.target = "daemon"
	}
	if c.target != "remote" {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	var err error
	if c.admin, err = eedclient.New(eedclient.Options{BaseURL: c.base, Seed: cfg.seed}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// start brings up a fresh server (empty registry, cold sessions) on c's
// address, retrying while a previous instance still holds the port.
func (c *serverCtl) start() error {
	addr := strings.TrimPrefix(c.base, "http://")
	var err error
	for i := 0; i < 50; i++ {
		var bound string
		if c.target == "daemon" {
			bound, err = c.spawn(addr)
		} else {
			bound, err = c.listen(addr)
		}
		if err == nil {
			c.base = "http://" + bound
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server never bound %s: %v", addr, err)
}

var listenRe = regexp.MustCompile(`listening on http://([^/\s]+)/`)

func (c *serverCtl) spawn(addr string) (string, error) {
	cmd := exec.Command(c.eedd, "-addr", addr, "-faults-admin")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			go func() { // keep the pipe drained for the daemon's lifetime
				for sc.Scan() {
				}
			}()
			c.cmd = cmd
			return m[1], nil
		}
	}
	return "", fmt.Errorf("eedd exited without listening: %v", cmd.Wait())
}

func (c *serverCtl) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.srv = eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{})})
	// Injected srv.panic faults are recovered by net/http per connection;
	// discard its stack-trace logging — the harness counts them as
	// transport errors, the traces are pure noise.
	c.httpSrv = &http.Server{Handler: c.srv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	go c.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// SetFaults arms a faultinj spec; "" clears every fault.
func (c *serverCtl) SetFaults(spec string) error {
	switch {
	case c.target == "daemon":
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := c.admin.SetFaults(ctx, spec)
		return err
	case spec == "":
		faultinj.Deactivate()
		return nil
	case c.target == "remote":
		return errors.New("cannot arm faults on a remote -addr")
	}
	plan, err := faultinj.Parse(spec)
	if err != nil {
		return err
	}
	faultinj.Activate(plan)
	return nil
}

// Restart stops the server and starts a fresh one on the same address.
// A daemon must drain cleanly on SIGTERM (exit 0); an in-process server
// drains and shuts down the way a real one would, and its fault plan
// does not survive — neither would a real process's.
func (c *serverCtl) Restart() error {
	switch c.target {
	case "remote":
		return errors.New("cannot restart a remote -addr")
	case "daemon":
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		if err := c.cmd.Wait(); err != nil {
			return fmt.Errorf("daemon did not drain cleanly on SIGTERM: %v", err)
		}
	default:
		faultinj.Deactivate()
		c.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return c.start()
}

func (c *serverCtl) Close() {
	switch {
	case c.target == "in-process":
		faultinj.Deactivate()
		c.httpSrv.Close()
	case c.target == "daemon" && c.cmd.ProcessState == nil:
		c.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { c.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			c.cmd.Process.Kill()
			<-done
		}
	}
}

// ---- bit-identity oracle ----

// sameResult compares two wire results bit-for-bit: float fields via
// Float64bits, optional fields via nil-ness then bits.
func sameResult(a, b eedsrv.NodeResult) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	p := func(x, y *float64) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || f(*x, *y)
	}
	return a.Node == b.Node &&
		f(a.Delay50, b.Delay50) && f(a.Rise, b.Rise) && f(a.Overshoot, b.Overshoot) &&
		f(a.Elmore50, b.Elmore50) && f(a.ElmoreRise, b.ElmoreRise) &&
		p(a.Zeta, b.Zeta) && p(a.OmegaN, b.OmegaN) && p(a.Settle, b.Settle) &&
		a.Degraded == b.Degraded && a.DegradedClass == b.DegradedClass
}

// oracleFor computes the ground-truth wire results for a tree with the
// core analyzer directly — no engine sessions, no fault points, no HTTP.
func oracleFor(tree *rlctree.Tree) (map[string]eedsrv.NodeResult, []eedsrv.NodeResult, error) {
	analyses, err := core.AnalyzeTree(tree)
	if err != nil {
		return nil, nil, err
	}
	byName := make(map[string]eedsrv.NodeResult, len(analyses))
	ordered := make([]eedsrv.NodeResult, 0, len(analyses))
	for _, na := range analyses {
		nr := eedsrv.NodeResultOf(na)
		byName[nr.Node] = nr
		ordered = append(ordered, nr)
	}
	return byName, ordered, nil
}

func fpHex(t *rlctree.Tree) string {
	fp := t.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// ---- the run ----

// harness is the state the workers share: the shared net and its
// oracle, the phase counters and the mismatch tally.
type harness struct {
	cfg      config
	chaos    bool
	shared   string // shared net fingerprint (stable: its content never changes)
	treeText string
	rootName string
	names    []string
	byName   map[string]eedsrv.NodeResult
	ordered  []eedsrv.NodeResult

	stop     atomic.Bool
	phaseIdx atomic.Int32
	phaseOps []atomic.Int64
	phaseErr []atomic.Int64

	mismatches     atomic.Int64
	mu             sync.Mutex
	mismatchSample string
}

func (h *harness) noteMismatch(desc string) {
	h.mismatches.Add(1)
	h.mu.Lock()
	if h.mismatchSample == "" {
		h.mismatchSample = desc
	}
	h.mu.Unlock()
}

func (h *harness) check(what string, got, want eedsrv.NodeResult) {
	if !sameResult(got, want) {
		h.noteMismatch(fmt.Sprintf("%s %s: got %+v want %+v", what, want.Node, got, want))
	}
}

func run(cfg config) (*report, error) {
	treeText, err := os.ReadFile(cfg.netFile)
	if err != nil {
		return nil, err
	}
	tree, err := rlctree.Parse(bytes.NewReader(treeText))
	if err != nil {
		return nil, err
	}
	roots := tree.Roots()
	if len(roots) == 0 {
		return nil, fmt.Errorf("net %q has no root section", cfg.netFile)
	}
	byName, ordered, err := oracleFor(tree)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, tree.Len())
	for _, sec := range tree.Sections() {
		names = append(names, sec.Name())
	}

	ctl, err := newServerCtl(cfg)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	// Register the shared net and warm it before the clock starts.
	ctx := context.Background()
	info, err := ctl.admin.Register(ctx, string(treeText))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", cfg.netFile, err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ctl.admin.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: names[len(names)-1]}); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	h := &harness{
		cfg: cfg, chaos: cfg.chaos(),
		shared: info.Net, treeText: string(treeText), rootName: roots[0].Name(),
		names: names, byName: byName, ordered: ordered,
		phaseOps: make([]atomic.Int64, len(cfg.phases)),
		phaseErr: make([]atomic.Int64, len(cfg.phases)),
	}
	// The deck is weight-proportional; each worker shuffles it with its
	// own seed, so the op order differs per worker but the realized mix
	// is exact.
	var deck []string
	for _, name := range opNames {
		for i := 0; i < cfg.mix[name]; i++ {
			deck = append(deck, name)
		}
	}
	workers := make([]*worker, cfg.conc)
	var wg sync.WaitGroup
	for i := range workers {
		w, err := newWorker(h, ctl.base, i, deck)
		if err != nil {
			return nil, err
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}

	// The controller walks the schedule while the workers run.
	rep := &report{
		Net: cfg.netFile, Sections: info.Sections, Target: ctl.target, Addr: ctl.base, Chaos: h.chaos,
		Concurrency: cfg.conc, Seed: cfg.seed, Mix: cfg.mix, Ops: map[string]opStats{},
		BudgetPct: cfg.budgetPct, P50GateUs: us(cfg.p50Gate),
	}
	gateFail := func(format string, args ...any) {
		rep.GateFailures = append(rep.GateFailures, fmt.Sprintf(format, args...))
	}
	start := time.Now()
	for i, ph := range cfg.phases {
		h.phaseIdx.Store(int32(i))
		t0 := time.Now()
		if ph.Restart {
			if err := ctl.SetFaults(""); err != nil {
				gateFail("clearing faults before restart: %v", err)
			}
			if err := ctl.Restart(); err != nil {
				gateFail("restart: %v", err)
			}
		} else if err := ctl.SetFaults(ph.Spec); err != nil {
			gateFail("setting faults for %s: %v", ph.Name, err)
		}
		if ph.Probe {
			p50, after := h.probeRecovery(ctx, ctl.admin, t0)
			rep.Recovery = &recovery{P50us: us(p50), AfterS: after.Seconds()}
		}
		if rest := time.Duration(float64(cfg.dur)*ph.Frac) - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
		rep.Phases = append(rep.Phases, phaseStats{
			Name: ph.Name, Ops: h.phaseOps[i].Load(), Errors: h.phaseErr[i].Load(),
			Elapsed: time.Since(t0).Seconds(),
		})
	}
	elapsed := time.Since(start)
	h.stop.Store(true)
	wg.Wait()

	rep.DurationS = elapsed.Seconds()
	rep.merge(workers, elapsed)
	rep.Mismatches = h.mismatches.Load()
	rep.MismatchSample = h.mismatchSample

	if rep.Mismatches > 0 {
		gateFail("%d bit-incorrect payloads (first: %s)", rep.Mismatches, rep.MismatchSample)
	}
	if floor := 100 - cfg.budgetPct; rep.SuccessRatePct < floor {
		gateFail("success rate %.3f%% below the %.3f%% budget floor", rep.SuccessRatePct, floor)
	}
	switch d := rep.Ops["delay"]; {
	case rep.Recovery != nil:
		if rep.Recovery.AfterS < 0 {
			gateFail("warm p50 never recovered under %v within %v of the last fault (last probe p50 %.1fus)",
				cfg.p50Gate, cfg.recoverWithin, rep.Recovery.P50us)
		}
	case d.Count > 0 && d.P50us > rep.P50GateUs:
		gateFail("warm point-query p50 %.1fus exceeds the %v gate", d.P50us, cfg.p50Gate)
	}
	return rep, nil
}

// probeRecovery polls the warm point-query p50 (bursts of 30) until it
// clears the gate or the window expires. Returns the last measured p50
// and how long recovery took since cleared (-1 = never within the
// window).
func (h *harness) probeRecovery(ctx context.Context, cl *eedclient.Client, cleared time.Time) (time.Duration, time.Duration) {
	node := h.names[len(h.names)-1]
	deadline := cleared.Add(h.cfg.recoverWithin)
	var lastP50 time.Duration
	for {
		lats := make([]time.Duration, 0, 30)
		for i := 0; i < 30; i++ {
			t0 := time.Now()
			if _, err := cl.Delay(ctx, eedclient.DelayRequest{Net: h.shared, Node: node}); err == nil {
				lats = append(lats, time.Since(t0))
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			lastP50 = obs.Percentile(lats, 50)
			if lastP50 <= h.cfg.p50Gate {
				return lastP50, time.Since(cleared)
			}
		}
		if time.Now().After(deadline) {
			return lastP50, -time.Second
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// merge folds the workers' tallies into per-op statistics and totals.
func (r *report) merge(workers []*worker, elapsed time.Duration) {
	success := 0
	for _, name := range opNames {
		var all []time.Duration
		st := opStats{ErrorsByClass: map[string]int{}}
		for _, w := range workers {
			t := w.ops[name]
			all = append(all, t.lat...)
			st.Errors += t.errs
			st.Recovered += t.recovered
			for cls, n := range t.byClass {
				st.ErrorsByClass[cls] += n
			}
		}
		st.Count = len(all)
		success += st.Count
		r.Recovered += st.Recovered
		r.TotalErrors += st.Errors
		r.TotalRequests += st.Count + st.Recovered + st.Errors
		if st.Count+st.Recovered+st.Errors == 0 {
			continue
		}
		if st.Errors == 0 {
			st.ErrorsByClass = nil
		}
		if len(all) > 0 {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			var sum time.Duration
			for _, d := range all {
				sum += d
			}
			st.P50us = us(obs.Percentile(all, 50))
			st.P90us = us(obs.Percentile(all, 90))
			st.P99us = us(obs.Percentile(all, 99))
			st.MaxUs = us(all[len(all)-1])
			st.MeanUs = us(sum / time.Duration(len(all)))
			st.RPS = float64(len(all)) / elapsed.Seconds()
		}
		r.Ops[name] = st
	}
	for _, w := range workers {
		cs := w.cl.Stats()
		r.ClientRetries += cs.Retries
		r.BreakerTrips += cs.BreakerTrips
	}
	r.Throughput = float64(r.TotalRequests) / elapsed.Seconds()
	if r.TotalRequests > 0 {
		r.SuccessRatePct = 100 * float64(success+r.Recovered) / float64(r.TotalRequests)
	}
}

// ---- workers ----

// tally is one worker's private record of one op kind; tallies are
// merged after the run, never shared.
type tally struct {
	lat       []time.Duration
	errs      int
	recovered int
	byClass   map[string]int
}

// record books one finished op: its latency on success, an error count
// keyed by class on failure.
func (t *tally) record(lat time.Duration, err error) {
	if err == nil {
		t.lat = append(t.lat, lat)
		return
	}
	t.errs++
	if t.byClass == nil {
		t.byClass = map[string]int{}
	}
	t.byClass[errorClass(err)]++
}

// errorClass names a failure: breaker_open for a request the client's
// circuit breaker refused, else the server's guard class, else the HTTP
// status, else transport.
func errorClass(err error) string {
	var ce *eedclient.Error
	switch {
	case errors.Is(err, eedclient.ErrBreakerOpen):
		return "breaker_open"
	case !errors.As(err, &ce):
		return "transport"
	case ce.Class != "":
		return ce.Class
	case ce.Status != 0:
		return "http_" + strconv.Itoa(ce.Status)
	}
	return "transport"
}

// worker is one closed-loop client: its own client, deck and RNG, a
// private edit net with a local replica, and a tally per op kind.
type worker struct {
	ops  map[string]*tally
	h    *harness
	cl   *eedclient.Client
	rng  *rand.Rand
	deck []string

	stub    string        // the private net's extra section, the edit target
	replica *rlctree.Tree // the private net as last confirmed by the server
	editNet string        // its fingerprint; "" = re-register before the next edit
}

func newWorker(h *harness, base string, i int, deck []string) (*worker, error) {
	opts := eedclient.Options{BaseURL: base, Seed: h.cfg.seed*100 + int64(i)}
	if h.chaos {
		opts.RequestTimeout = 5 * time.Second
		opts.MaxRetries = 4
		opts.BackoffCap = 500 * time.Millisecond
		opts.BreakerCooldown = 300 * time.Millisecond
	} else {
		opts.MaxRetries = -1
		opts.BreakerThreshold = -1
	}
	cl, err := eedclient.New(opts)
	if err != nil {
		return nil, err
	}
	w := &worker{ops: map[string]*tally{}, h: h, cl: cl, rng: rand.New(rand.NewSource(h.cfg.seed*1000 + int64(i)))}
	for _, name := range opNames {
		w.ops[name] = &tally{}
	}
	w.deck = append([]string(nil), deck...)
	w.rng.Shuffle(len(w.deck), func(a, b int) { w.deck[a], w.deck[b] = w.deck[b], w.deck[a] })
	// The private variant: the shared tree plus one worker-unique stub
	// section under the root, registered through the API like any
	// client tree would be.
	w.stub = fmt.Sprintf("zz%d", i)
	w.replica, err = rlctree.ParseString(h.treeText + fmt.Sprintf("%s %s %d 1n 10f\n", w.stub, h.rootName, i+1))
	return w, err
}

func (w *worker) loop(ctx context.Context) {
	h := w.h
	for i := 0; !h.stop.Load(); i++ {
		kind := w.deck[i%len(w.deck)]
		ph := h.phaseIdx.Load()
		h.phaseOps[ph].Add(1)
		lat, err := w.do(ctx, kind)
		if err != nil && h.chaos && w.heal(ctx, kind, err) {
			w.ops[kind].recovered++
			continue
		}
		if err != nil {
			h.phaseErr[ph].Add(1)
		}
		w.ops[kind].record(lat, err)
	}
}

// do runs one op. Only the request is timed; the oracle check after it
// is not.
func (w *worker) do(ctx context.Context, kind string) (time.Duration, error) {
	h := w.h
	switch kind {
	case "delay":
		node := h.names[w.rng.Intn(len(h.names))]
		t0 := time.Now()
		resp, err := w.cl.Delay(ctx, eedclient.DelayRequest{Net: h.shared, Node: node})
		lat := time.Since(t0)
		if err == nil {
			h.check("delay", resp.Result, h.byName[node])
		}
		return lat, err
	case "analyze":
		t0 := time.Now()
		resp, err := w.cl.Analyze(ctx, eedclient.AnalyzeRequest{Net: h.shared})
		lat := time.Since(t0)
		if err == nil {
			if len(resp.Nodes) != len(h.ordered) {
				h.noteMismatch(fmt.Sprintf("analyze: %d nodes, want %d", len(resp.Nodes), len(h.ordered)))
			}
			for i := range min(len(resp.Nodes), len(h.ordered)) {
				h.check("analyze", resp.Nodes[i], h.ordered[i])
			}
		}
		return lat, err
	case "batch":
		items := make([]eedclient.BatchItem, 8)
		for j := range items {
			items[j] = eedclient.BatchItem{Net: h.shared, Node: h.names[w.rng.Intn(len(h.names))]}
		}
		t0 := time.Now()
		resp, err := w.cl.Batch(ctx, eedclient.BatchRequest{Items: items})
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if len(resp.Results) != len(items) {
			h.noteMismatch(fmt.Sprintf("batch: %d results, want %d", len(resp.Results), len(items)))
		}
		for j := range min(len(resp.Results), len(items)) {
			switch r := resp.Results[j]; {
			case r.Error != nil:
				// A failed item fails the op, so a 404 item heals like a
				// 404 request.
				return lat, &eedclient.Error{Op: "batch", Status: r.Error.Status, Class: r.Error.Class,
					Message: r.Error.Message, Attempts: 1}
			case r.Result == nil:
				h.noteMismatch(fmt.Sprintf("batch item %d: no result", j))
			default:
				h.check("batch", *r.Result, h.byName[items[j].Node])
			}
		}
		return lat, nil
	default:
		return w.edit(ctx)
	}
}

// edit nudges the stub's capacitance on the private net and checks the
// server's new fingerprint and result against the advanced replica.
func (w *worker) edit(ctx context.Context) (time.Duration, error) {
	if w.editNet == "" {
		if err := w.resync(ctx); err != nil {
			return 0, err
		}
	}
	sec := w.replica.Section(w.stub)
	val := sec.C() + 1e-18
	t0 := time.Now()
	resp, err := w.cl.Edit(ctx, eedclient.EditRequest{
		Net:   w.editNet,
		Edits: []eedclient.EditSpec{{Node: w.stub, Elem: "C", Value: val}},
		Node:  w.stub,
	})
	lat := time.Since(t0)
	if err != nil {
		// Failed or ambiguous: never advance the replica on uncertainty.
		// The next edit re-registers the replica's last confirmed content,
		// which reconverges the fingerprint chain after evictions, restarts
		// and edits that may or may not have applied server-side (an
		// orphaned applied edit stays resident under its own key,
		// harmless).
		w.editNet = ""
		return lat, err
	}
	if err := sec.SetC(val); err != nil {
		w.editNet = ""
		return lat, err
	}
	w.editNet = resp.Net
	if want := fpHex(w.replica); resp.Net != want {
		w.h.noteMismatch(fmt.Sprintf("edit fingerprint: got %s want %s", resp.Net, want))
	}
	// core.AnalyzeNode runs AnalyzeTree's sums and per-node kernel for the
	// stub alone, so it yields the same bits without the whole-tree
	// closed forms, whose settling-time bisections would otherwise cost
	// the harness more CPU per edit than the server spends answering it.
	na, err := core.AnalyzeNode(sec)
	if err != nil {
		return lat, err
	}
	w.h.check("edit", resp.Result, eedsrv.NodeResultOf(na))
	return lat, nil
}

// resync registers the replica's content and adopts its fingerprint.
// Format→Parse is bit-exact (unit.Format verifies every rendering
// reproduces math.Float64bits), so the server must now hold exactly the
// replica — a different fingerprint is a real round-trip defect the run
// surfaces, not papers over.
func (w *worker) resync(ctx context.Context) error {
	info, err := w.cl.Register(ctx, w.replica.Format())
	if err != nil {
		return err
	}
	if want := fpHex(w.replica); info.Net != want {
		w.h.noteMismatch(fmt.Sprintf("register fingerprint: got %s want %s", info.Net, want))
	}
	w.editNet = info.Net
	return nil
}

// heal retries a failed op once its likely cause is gone: a 404 (the net
// was evicted, or lost in a restart) re-registers known content — the
// same content restores the same fingerprint — and a transport error or
// 5xx first waits for the server to report healthy. It reports whether
// the retry succeeded.
func (w *worker) heal(ctx context.Context, kind string, err error) bool {
	var ce *eedclient.Error
	if !errors.As(err, &ce) {
		return false
	}
	notFound := ce.Status == http.StatusNotFound
	if !notFound {
		if (ce.Status != 0 && ce.Status < 500) || !w.waitHealthy(ctx) {
			return false
		}
	}
	if kind == "edit" {
		return w.resync(ctx) == nil
	}
	if notFound {
		if _, err := w.cl.Register(ctx, w.h.treeText); err != nil {
			return false
		}
	}
	_, err = w.do(ctx, kind)
	return err == nil
}

func (w *worker) waitHealthy(ctx context.Context) bool {
	deadline := time.Now().Add(w.h.cfg.recoverWithin)
	for time.Now().Before(deadline) && !w.h.stop.Load() {
		if hr, err := w.cl.Health(ctx); err == nil && hr.Status == "ok" {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func renderText(r *report) string {
	var b strings.Builder
	mode := "load"
	if r.Chaos {
		mode = "chaos"
	}
	fmt.Fprintf(&b, "eedload: %s (%d sections) against %s (%s, %s), %d workers, %.1fs, seed %d, mix %v\n",
		r.Net, r.Sections, r.Addr, r.Target, mode, r.Concurrency, r.DurationS, r.Seed, r.Mix)
	if len(r.Phases) > 1 {
		fmt.Fprintf(&b, "\n%-14s %10s %10s %10s\n", "phase", "ops", "errors", "elapsed")
		for _, ph := range r.Phases {
			fmt.Fprintf(&b, "%-14s %10d %10d %9.1fs\n", ph.Name, ph.Ops, ph.Errors, ph.Elapsed)
		}
	}
	fmt.Fprintf(&b, "\n%-8s %8s %8s %9s %9s %9s %9s %8s  %s\n",
		"op", "count", "errors", "p50[us]", "p90[us]", "p99[us]", "max[us]", "req/s", "errors by class")
	for _, name := range opNames {
		if st, ok := r.Ops[name]; ok {
			fmt.Fprintf(&b, "%-8s %8d %8d %9.1f %9.1f %9.1f %9.1f %8.0f", name, st.Count, st.Errors,
				st.P50us, st.P90us, st.P99us, st.MaxUs, st.RPS)
			if st.Errors > 0 {
				fmt.Fprintf(&b, "  %v", st.ErrorsByClass)
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "\ntotal %d requests (%.0f req/s): %d ok, %d recovered, %d failed (%.3f%% success, budget %.3f%%)\n",
		r.TotalRequests, r.Throughput, r.TotalRequests-r.Recovered-r.TotalErrors, r.Recovered, r.TotalErrors,
		r.SuccessRatePct, r.BudgetPct)
	fmt.Fprintf(&b, "client: %d retries, %d breaker trips\n", r.ClientRetries, r.BreakerTrips)
	fmt.Fprintf(&b, "bit-incorrect payloads: %d\n", r.Mismatches)
	switch {
	case r.Recovery != nil && r.Recovery.AfterS >= 0:
		fmt.Fprintf(&b, "recovery: warm p50 %.1fus (gate %.1fus) after %.2fs\n", r.Recovery.P50us, r.P50GateUs, r.Recovery.AfterS)
	case r.Recovery != nil:
		fmt.Fprintf(&b, "recovery: NEVER (last p50 %.1fus, gate %.1fus)\n", r.Recovery.P50us, r.P50GateUs)
	default:
		fmt.Fprintf(&b, "warm point-query p50 %.1fus (gate %.1fus)\n", r.Ops["delay"].P50us, r.P50GateUs)
	}
	if len(r.GateFailures) == 0 {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%s)\n", strings.Join(r.GateFailures, "; "))
	}
	return b.String()
}
