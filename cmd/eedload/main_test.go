package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
	"eedtree/internal/obs"
)

var line64 = filepath.Join("..", "..", "examples", "nets", "line64.tree")

// loadConfig is a short load-mode run against an in-process server with
// gates loose enough for the race detector.
func loadConfig(dur time.Duration, conc int, mix map[string]int) config {
	return config{
		netFile: line64, phases: loadPhases, dur: dur, conc: conc, mix: mix, seed: 1,
		budgetPct: 0, p50Gate: time.Second, recoverWithin: 3 * time.Second,
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("delay=90,analyze=5,edit=5")
	if err != nil || mix["delay"] != 90 || mix["analyze"] != 5 || mix["edit"] != 5 {
		t.Fatalf("mix=%v err=%v", mix, err)
	}
	for _, bad := range []string{"", "delay", "delay=x", "delay=-1", "frobnicate=3", "delay=0,edit=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("mix %q should be rejected", bad)
		}
	}
}

// TestPct pins the shared obs.Percentile helper to the semantics the
// harness's own pct() had before the dedupe: nearest-rank on a sorted
// slice, clamped, zero for empty input.
func TestPct(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := obs.Percentile(lat, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := obs.Percentile(lat, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := obs.Percentile(lat[:1], 99); got != 1 {
		t.Fatalf("single-sample p99 = %v, want 1", got)
	}
	if got := obs.Percentile[time.Duration](nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}

func TestScheduleFractionsSumToOne(t *testing.T) {
	total := 0.0
	for _, ph := range schedule(1) {
		total += ph.Frac
		if ph.Spec != "" {
			if _, err := faultinj.Parse(ph.Spec); err != nil {
				t.Fatalf("phase %s spec %q: %v", ph.Name, ph.Spec, err)
			}
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("phase fractions sum to %v, want 1", total)
	}
	if (config{phases: loadPhases}).chaos() || !(config{phases: schedule(1)}).chaos() {
		t.Fatal("only the fault schedule may switch on chaos mode")
	}
}

func TestSameResultIsBitExact(t *testing.T) {
	f := 1.25e-9
	g := 1.25e-9
	a := eedsrv.NodeResult{Node: "x", Delay50: f, Zeta: &f}
	b := eedsrv.NodeResult{Node: "x", Delay50: g, Zeta: &g}
	if !sameResult(a, b) {
		t.Fatal("identical results reported unequal")
	}
	h := math.Nextafter(g, 1) // one ulp away
	for name, c := range map[string]eedsrv.NodeResult{
		"delay_ulp":  {Node: "x", Delay50: h, Zeta: &g},
		"zeta_ulp":   {Node: "x", Delay50: g, Zeta: &h},
		"zeta_nil":   {Node: "x", Delay50: g},
		"other_node": {Node: "y", Delay50: g, Zeta: &g},
		"degraded":   {Node: "x", Delay50: g, Zeta: &g, Degraded: true},
	} {
		if sameResult(a, c) {
			t.Fatalf("%s: differing results reported equal", name)
		}
	}
}

// TestShortRunInProcess drives the load mode — in-process server,
// registration, warmup, mixed load, oracle checks — for a fraction of a
// second and checks the report.
func TestShortRunInProcess(t *testing.T) {
	rep, err := run(loadConfig(300*time.Millisecond, 4, map[string]int{"delay": 8, "analyze": 1, "edit": 1, "batch": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sections != 64 || rep.Target != "in-process" || rep.Chaos {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.TotalErrors != 0 || rep.Mismatches != 0 || len(rep.GateFailures) != 0 {
		t.Fatalf("clean load: %d errors, %d mismatches, gates %v", rep.TotalErrors, rep.Mismatches, rep.GateFailures)
	}
	if rep.TotalRequests == 0 || rep.Throughput <= 0 || rep.ClientRetries != 0 {
		t.Fatalf("no load recorded, or a load-mode client retried: %+v", rep)
	}
	for _, op := range opNames {
		st, ok := rep.Ops[op]
		if !ok || st.Count == 0 {
			t.Fatalf("op %s missing from the report: %+v", op, rep.Ops)
		}
		if st.P50us <= 0 || st.P99us < st.P50us || st.MaxUs < st.P99us {
			t.Fatalf("op %s: implausible percentiles %+v", op, st)
		}
	}

	// The report serializes and round-trips.
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalRequests != rep.TotalRequests {
		t.Fatal("report did not round-trip")
	}
	if txt := renderText(rep); !strings.Contains(txt, "verdict: PASS") {
		t.Fatalf("text report:\n%s", txt)
	}
}

func TestRunRejectsMissingNet(t *testing.T) {
	cfg := loadConfig(time.Second, 1, map[string]int{"delay": 1})
	cfg.netFile = filepath.Join(t.TempDir(), "nope.tree")
	if _, err := run(cfg); err == nil {
		t.Fatal("missing net file should error")
	}
	if _, err := os.Stat("BENCH_PR6.json"); err == nil {
		t.Fatal("run() must not write artifacts itself")
	}
}

// TestErrorClassBreakdown checks the per-class error tally: classes come
// from the typed client error, a breaker refusal first.
func TestErrorClassBreakdown(t *testing.T) {
	var tl tally
	tl.record(time.Microsecond, nil)
	tl.record(0, &eedclient.Error{Op: "delay", Status: 422, Class: "numeric"})
	tl.record(0, &eedclient.Error{Op: "delay", Status: 503, Class: "draining"})
	tl.record(0, &eedclient.Error{Op: "delay", Status: 502})
	tl.record(0, &eedclient.Error{Op: "delay", Status: 503, Class: "draining", Err: eedclient.ErrBreakerOpen})
	tl.record(0, errors.New("plain transport failure"))
	if len(tl.lat) != 1 || tl.errs != 5 {
		t.Fatalf("lat=%d errs=%d", len(tl.lat), tl.errs)
	}
	want := map[string]int{"numeric": 1, "draining": 1, "http_502": 1, "breaker_open": 1, "transport": 1}
	for cls, n := range want {
		if tl.byClass[cls] != n {
			t.Fatalf("class %s = %d, want %d (all: %v)", cls, tl.byClass[cls], n, tl.byClass)
		}
	}
}

// TestShortRunWithRetriesUnderFaults runs a one-phase fault schedule, a
// low-rate injected queue timeout, against an in-process server: the
// chaos-mode client's Retry-After-aware loop should absorb every
// injected rejection, leaving a clean report with a nonzero retry count.
func TestShortRunWithRetriesUnderFaults(t *testing.T) {
	t.Cleanup(faultinj.Deactivate)
	cfg := loadConfig(500*time.Millisecond, 4, map[string]int{"delay": 8, "edit": 2})
	cfg.phases = []phase{{Name: "queue_timeout", Frac: 1, Spec: "seed=3;srv.queue_timeout:p=0.05"}}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Chaos || rep.ClientRetries == 0 {
		t.Fatalf("faults armed but the client never retried:\n%s", renderText(rep))
	}
	if rep.TotalErrors != 0 || rep.Recovered != 0 || rep.Mismatches != 0 {
		t.Fatalf("retry loop leaked %d errors (%d healed by the harness), %d mismatches:\n%s",
			rep.TotalErrors+rep.Recovered, rep.Recovered, rep.Mismatches, renderText(rep))
	}
}

// TestShortSoakInProcess runs the full chaos schedule — every fault
// family plus a listener-bounce restart — compressed into ~2.5s against
// an in-process server, and requires every gate to pass.
func TestShortSoakInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes ~3s")
	}
	t.Cleanup(faultinj.Deactivate)
	rep, err := run(config{
		netFile:       line64,
		phases:        schedule(7),
		dur:           2500 * time.Millisecond,
		conc:          4,
		mix:           map[string]int{"delay": 60, "analyze": 15, "edit": 25},
		seed:          7,
		budgetPct:     5, // short runs amplify per-op noise; CI soaks use 1
		p50Gate:       10 * time.Millisecond,
		recoverWithin: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("bit-incorrect payloads: %d (first: %s)", rep.Mismatches, rep.MismatchSample)
	}
	if len(rep.GateFailures) > 0 {
		t.Fatalf("gates failed: %v\n%s", rep.GateFailures, renderText(rep))
	}
	if rep.TotalRequests == 0 || len(rep.Phases) != 7 || rep.Recovery == nil {
		t.Fatalf("soak did not run: %+v", rep)
	}
	// The fault phases actually exercised the client's resilience.
	if rep.ClientRetries == 0 && rep.Recovered == 0 {
		t.Fatalf("no retries and no recoveries — faults never bit:\n%s", renderText(rep))
	}
	if txt := renderText(rep); !strings.Contains(txt, "recovery: warm p50") {
		t.Fatalf("text report:\n%s", txt)
	}
}

// TestCorruptPayloadFailsGate points a load-mode run at a server whose
// point-query answers are one ulp off: the oracle must catch it and the
// mismatch gate must fail the run.
func TestCorruptPayloadFailsGate(t *testing.T) {
	real := eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{})}).Handler()
	corrupt := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/delay" {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var resp eedsrv.DelayResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		resp.Result.Delay50 = math.Nextafter(resp.Result.Delay50, math.Inf(1))
		var body bytes.Buffer
		json.NewEncoder(&body).Encode(resp)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body.Bytes())
	})
	ts := httptest.NewServer(corrupt)
	defer ts.Close()

	cfg := loadConfig(200*time.Millisecond, 2, map[string]int{"delay": 1})
	cfg.addr = ts.URL
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != "remote" || rep.TotalErrors != 0 || rep.Mismatches == 0 {
		t.Fatalf("target %s, %d errors, %d mismatches; want remote, 0, >0", rep.Target, rep.TotalErrors, rep.Mismatches)
	}
	if len(rep.GateFailures) != 1 || !strings.Contains(rep.GateFailures[0], "bit-incorrect payloads") {
		t.Fatalf("gate failures %v, want the mismatch gate alone", rep.GateFailures)
	}
	if txt := renderText(rep); !strings.Contains(txt, "verdict: FAIL") {
		t.Fatalf("text report:\n%s", txt)
	}
}
