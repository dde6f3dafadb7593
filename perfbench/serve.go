package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// The serve workloads drive an in-process eedsrv server with default
// options over loopback from nproc eedclient clients in a closed loop:
// each client sends its next request when the previous reply arrives, as
// eedd callers do. serve-read is the pure read path (registry hit, no
// catch-up, result-cache hit); serve-write does the same layers' write
// work (edits that journal and re-key, analyses that miss the result
// cache, registrations that miss and evict).

type opKind int

const (
	opDelay opKind = iota
	opAnalyze
	opBatch
	opEdit
	opRegister
	numKinds
)

var routes = [numKinds]string{"/v1/delay", "/v1/analyze", "/v1/batch", "/v1/edit", "/v1/nets"}

const batchItems = 8

type editOp struct {
	node  int
	elem  string // "R", "L" or "C"
	value float64
}

// serveOp is one request of a deck and, once sent, its outcome.
type serveOp struct {
	kind  opKind
	net   int      // target net (population index); edit and analyze in serve-write: a private net
	node  int      // delay node, or the edit's sink
	items [][2]int // batch (net, node) pairs
	edits []editOp
	reg   int // registration pool index

	err      error
	gotNet   string
	gotNode  eedsrv.NodeResult
	gotNodes []eedsrv.NodeResult
	gotBatch []eedsrv.BatchResult
	gotInfo  eedsrv.NetInfo
}

// writeRecord is what serve-write keeps of a request for the check after
// the run: the request, and an exact hash of the reply in place of the
// reply, so that the log does not swell the process it measures.
type writeRecord struct {
	kind  opKind
	net   int32
	node  int32
	reg   int32
	edits []editOp
	err   error
	reply uint64
}

func (op *serveOp) record() writeRecord {
	r := writeRecord{kind: op.kind, net: int32(op.net), node: int32(op.node), reg: int32(op.reg), edits: op.edits, err: op.err}
	switch op.kind {
	case opEdit:
		r.reply = replyHash(op.gotNet, []eedsrv.NodeResult{op.gotNode})
	case opAnalyze:
		r.reply = replyHash(op.gotNet, op.gotNodes)
	case opRegister:
		r.reply = replyHash(op.gotInfo.Net, nil, op.gotInfo.Sections, op.gotInfo.Depth)
	}
	return r
}

// population is the client-side view of a rendered serve population.
type population struct {
	write    bool
	texts    []string
	sizes    []int
	fp0      []string              // fingerprint of each net as rendered
	expect   [][]eedsrv.NodeResult // serve-read: core analysis of each net
	register []string
}

// nodeName is the section name the renderer gives node k.
func nodeName(k int) string { return "s" + strconv.Itoa(k) }

func fpHex(t *rlctree.Tree) string {
	fp := t.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// loadPopulation reads the rendered population and derives, from the
// benchmark's own replicas, what the server must answer.
func loadPopulation(path string, write bool) (*population, error) {
	var raw servePop
	if err := readJSON(path, &raw); err != nil {
		return nil, err
	}
	p := &population{write: write, texts: raw.Nets, register: raw.Register}
	for _, txt := range raw.Nets {
		t, err := rlctree.ParseString(txt)
		if err != nil {
			return nil, err
		}
		p.sizes = append(p.sizes, t.Len())
		p.fp0 = append(p.fp0, fpHex(t))
		if !write {
			want, err := expectedNodes(t)
			if err != nil {
				return nil, err
			}
			p.expect = append(p.expect, want)
		}
	}
	return p, nil
}

// expectedNodes is the core analysis of t in wire form: the oracle every
// served result is compared with, bit for bit.
func expectedNodes(t *rlctree.Tree) ([]eedsrv.NodeResult, error) {
	nodes, err := core.AnalyzeTree(t)
	if err != nil {
		return nil, err
	}
	out := make([]eedsrv.NodeResult, len(nodes))
	for i, na := range nodes {
		out[i] = eedsrv.NodeResultOf(na)
	}
	return out, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePtr(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sameBits(*a, *b)
}

// sameNodeResult reports whether two wire results are bit-identical.
func sameNodeResult(a, b eedsrv.NodeResult) bool {
	return a.Node == b.Node && sameBits(a.Delay50, b.Delay50) && sameBits(a.Rise, b.Rise) &&
		sameBits(a.Overshoot, b.Overshoot) && sameBits(a.Elmore50, b.Elmore50) &&
		sameBits(a.ElmoreRise, b.ElmoreRise) && samePtr(a.Zeta, b.Zeta) &&
		samePtr(a.OmegaN, b.OmegaN) && samePtr(a.Settle, b.Settle) &&
		a.Degraded == b.Degraded && a.DegradedClass == b.DegradedClass
}

// replyHash folds a reply — its net fingerprint, whole numbers and node
// results — into one hash over the exact bits.
func replyHash(net string, nodes []eedsrv.NodeResult, ints ...int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ptr := func(p *float64) {
		if p == nil {
			word(0x7ff8dead) // distinct from any value a present field hashes to in practice
			return
		}
		word(math.Float64bits(*p))
	}
	h.Write([]byte(net))
	for _, v := range ints {
		word(uint64(v))
	}
	for _, n := range nodes {
		h.Write([]byte(n.Node))
		for _, v := range []float64{n.Delay50, n.Rise, n.Overshoot, n.Elmore50, n.ElmoreRise} {
			word(math.Float64bits(v))
		}
		ptr(n.Zeta)
		ptr(n.OmegaN)
		ptr(n.Settle)
		if n.Degraded {
			word(1)
		}
		h.Write([]byte(n.DegradedClass))
	}
	return h.Sum64()
}

// deck draws one client's seeded request sequence.
type deck struct {
	rng        *rand.Rand
	pop        *population
	nets       []int // nets this client targets
	lastEdited int   // serve-write: net edited since its last analysis, or -1
}

func newDeck(pop *population, seed int64, client, clients int) *deck {
	d := &deck{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), pop: pop, lastEdited: -1}
	if pop.write {
		// Private nets interleave on the size ladder, so that every
		// client edits small and large nets alike.
		for i := client; i < len(pop.texts); i += clients {
			d.nets = append(d.nets, i)
		}
	} else {
		for i := range pop.texts {
			d.nets = append(d.nets, i)
		}
	}
	return d
}

func (d *deck) pick() (net, node int) {
	net = d.nets[d.rng.Intn(len(d.nets))]
	return net, d.rng.Intn(d.pop.sizes[net])
}

// next draws the next request: delay 90 / analyze 5 / batch 5 for
// serve-read; edit 60 / analyze 20 / register 20 for serve-write, where
// the analyze share falls to about 16 because an analysis needs a fresh
// edit.
func (d *deck) next() serveOp {
	r := d.rng.Intn(100)
	if !d.pop.write {
		switch {
		case r < 90:
			net, node := d.pick()
			return serveOp{kind: opDelay, net: net, node: node}
		case r < 95:
			net, _ := d.pick()
			return serveOp{kind: opAnalyze, net: net}
		default:
			op := serveOp{kind: opBatch}
			for i := 0; i < batchItems; i++ {
				net, node := d.pick()
				op.items = append(op.items, [2]int{net, node})
			}
			return op
		}
	}
	// An analysis targets the net edited last, once, so that it always
	// misses the result cache; with nothing edited since, redraw.
	for r >= 60 && r < 80 && d.lastEdited < 0 {
		r = d.rng.Intn(100)
	}
	switch {
	case r < 60:
		net, sink := d.pick()
		op := serveOp{kind: opEdit, net: net, node: sink}
		for i, n := 0, 1+d.rng.Intn(4); i < n; i++ {
			e := editOp{node: d.rng.Intn(d.pop.sizes[net])}
			switch d.rng.Intn(3) {
			case 0:
				e.elem, e.value = "R", 1+d.rng.Float64()*99
			case 1:
				e.elem, e.value = "L", (0.1+d.rng.Float64()*9.9)*1e-9
			default:
				e.elem, e.value = "C", (1+d.rng.Float64()*199)*1e-15
			}
			op.edits = append(op.edits, e)
		}
		d.lastEdited = net
		return op
	case r < 80:
		net := d.lastEdited
		d.lastEdited = -1
		return serveOp{kind: opAnalyze, net: net}
	default:
		return serveOp{kind: opRegister, reg: d.rng.Intn(len(d.pop.register))}
	}
}

// caller sends one request of a route and decodes its reply into resp.
type caller func(route string, req, resp any) error

func clientCaller(c *eedclient.Client) caller {
	ctx := context.Background()
	return func(route string, req, resp any) error {
		var err error
		switch route {
		case "/v1/delay":
			*resp.(*eedsrv.DelayResponse), err = c.Delay(ctx, req.(eedsrv.DelayRequest))
		case "/v1/analyze":
			*resp.(*eedsrv.AnalyzeResponse), err = c.Analyze(ctx, req.(eedsrv.AnalyzeRequest))
		case "/v1/batch":
			*resp.(*eedsrv.BatchResponse), err = c.Batch(ctx, req.(eedsrv.BatchRequest))
		case "/v1/edit":
			*resp.(*eedsrv.EditResponse), err = c.Edit(ctx, req.(eedsrv.EditRequest))
		case "/v1/nets":
			*resp.(*eedsrv.NetInfo), err = c.Register(ctx, req.(eedsrv.RegisterRequest).Tree)
		default:
			err = fmt.Errorf("unknown route %s", route)
		}
		return err
	}
}

// exec sends op through call; fps holds each net's current fingerprint
// and follows edits.
func (p *population) exec(call caller, op *serveOp, fps []string) {
	switch op.kind {
	case opDelay:
		var resp eedsrv.DelayResponse
		op.err = call(routes[opDelay], eedsrv.DelayRequest{Net: fps[op.net], Node: nodeName(op.node)}, &resp)
		op.gotNet, op.gotNode = resp.Net, resp.Result
	case opAnalyze:
		var resp eedsrv.AnalyzeResponse
		op.err = call(routes[opAnalyze], eedsrv.AnalyzeRequest{Net: fps[op.net]}, &resp)
		op.gotNet, op.gotNodes = resp.Net, resp.Nodes
	case opBatch:
		req := eedsrv.BatchRequest{}
		for _, it := range op.items {
			req.Items = append(req.Items, eedsrv.BatchItem{Net: fps[it[0]], Node: nodeName(it[1])})
		}
		var resp eedsrv.BatchResponse
		op.err = call(routes[opBatch], req, &resp)
		op.gotBatch = resp.Results
	case opEdit:
		req := eedsrv.EditRequest{Net: fps[op.net], Node: nodeName(op.node)}
		for _, e := range op.edits {
			req.Edits = append(req.Edits, eedsrv.EditSpec{Node: nodeName(e.node), Elem: e.elem, Value: e.value})
		}
		var resp eedsrv.EditResponse
		op.err = call(routes[opEdit], req, &resp)
		op.gotNet, op.gotNode = resp.Net, resp.Result
		if op.err == nil {
			fps[op.net] = resp.Net
		}
	case opRegister:
		op.err = call(routes[opRegister], eedsrv.RegisterRequest{Tree: p.register[op.reg]}, &op.gotInfo)
	}
}

// checkRead compares a serve-read reply with the precomputed oracle.
func (p *population) checkRead(t *tally, op *serveOp) {
	if op.err != nil {
		t.fail(false, "%s: %v", routes[op.kind], op.err)
		return
	}
	switch op.kind {
	case opDelay:
		if op.gotNet != p.fp0[op.net] || !sameNodeResult(op.gotNode, p.expect[op.net][op.node]) {
			t.fail(true, "delay net %d node %d differs from the core analysis", op.net, op.node)
		}
	case opAnalyze:
		want := p.expect[op.net]
		ok := op.gotNet == p.fp0[op.net] && len(op.gotNodes) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = sameNodeResult(op.gotNodes[i], want[i])
		}
		if !ok {
			t.fail(true, "analyze net %d differs from the core analysis", op.net)
		}
	case opBatch:
		ok := len(op.gotBatch) == len(op.items)
		for i := 0; ok && i < len(op.items); i++ {
			r, it := op.gotBatch[i], op.items[i]
			ok = r.Error == nil && r.Result != nil && r.Net == p.fp0[it[0]] && sameNodeResult(*r.Result, p.expect[it[0]][it[1]])
		}
		if !ok {
			t.fail(true, "batch differs from the core analysis")
		}
	}
}

// verifyWrite replays one serve-write client's log on local replicas of
// its private nets, which follow the edits, and compares every reply
// with the core analysis of the replica.
func (p *population) verifyWrite(t *tally, log []writeRecord) error {
	replicas := map[int32]*rlctree.Tree{}
	regReply := map[int32]uint64{}
	replica := func(net int32) (*rlctree.Tree, error) {
		if r, ok := replicas[net]; ok {
			return r, nil
		}
		r, err := rlctree.ParseString(p.texts[net])
		replicas[net] = r
		return r, err
	}
	for i := range log {
		op := &log[i]
		if op.err != nil {
			t.fail(false, "%s: %v", routes[op.kind], op.err)
			continue
		}
		var want uint64
		switch op.kind {
		case opEdit:
			rep, err := replica(op.net)
			if err != nil {
				return err
			}
			for _, e := range op.edits {
				sec := rep.Section(nodeName(e.node))
				switch e.elem {
				case "R":
					err = sec.SetR(e.value)
				case "L":
					err = sec.SetL(e.value)
				default:
					err = sec.SetC(e.value)
				}
				if err != nil {
					return err
				}
			}
			na, err := core.AnalyzeNodeSums(rep.ElmoreSums(), rep.Section(nodeName(int(op.node))))
			if err != nil {
				return err
			}
			want = replyHash(fpHex(rep), []eedsrv.NodeResult{eedsrv.NodeResultOf(na)})
		case opAnalyze:
			rep, err := replica(op.net)
			if err != nil {
				return err
			}
			nodes, err := expectedNodes(rep)
			if err != nil {
				return err
			}
			want = replyHash(fpHex(rep), nodes)
		case opRegister:
			var ok bool
			if want, ok = regReply[op.reg]; !ok {
				tr, err := rlctree.ParseString(p.register[op.reg])
				if err != nil {
					return err
				}
				want = replyHash(fpHex(tr), nil, tr.Len(), tr.Depth())
				regReply[op.reg] = want
			}
		}
		if op.reply != want {
			t.fail(true, "%s net %d: the reply differs from the core analysis of the replica", routes[op.kind], op.net)
		}
	}
	return nil
}

// serveEnv is a running server and its clients.
type serveEnv struct {
	hs      *http.Server
	done    chan error
	clients []*eedclient.Client
}

// startServe starts eedsrv with default options on a loopback port and
// connects nproc clients with retries and the circuit breaker off.
func startServe(clients int) (*serveEnv, error) {
	srv := eedsrv.New(eedsrv.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { env.done <- env.hs.Serve(ln) }()
	for i := 0; i < clients; i++ {
		c, err := eedclient.New(eedclient.Options{
			BaseURL:          "http://" + ln.Addr().String(),
			MaxRetries:       -1,
			BreakerThreshold: -1,
			Seed:             int64(i + 1),
		})
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, c)
	}
	return env, nil
}

// close stops the server and waits for it to exit.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	if err := <-e.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// registerAll registers and warms the population: every net is analyzed
// once (filling the result cache) and queried at one node.
func (p *population) registerAll(call caller) error {
	for i, txt := range p.texts {
		var info eedsrv.NetInfo
		if err := call(routes[opRegister], eedsrv.RegisterRequest{Tree: txt}, &info); err != nil {
			return err
		}
		if info.Net != p.fp0[i] {
			return fmt.Errorf("net %d registered as %s, want %s", i, info.Net, p.fp0[i])
		}
		var ar eedsrv.AnalyzeResponse
		if err := call(routes[opAnalyze], eedsrv.AnalyzeRequest{Net: info.Net}, &ar); err != nil {
			return err
		}
		var dr eedsrv.DelayResponse
		if err := call(routes[opDelay], eedsrv.DelayRequest{Net: info.Net, Node: nodeName(p.sizes[i] - 1)}, &dr); err != nil {
			return err
		}
	}
	return nil
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	lat     [numKinds][]time.Duration
	ends    []time.Duration // completion times since the start
	ops     int
	elapsed time.Duration
	logs    [][]writeRecord
	t       tally
}

// closedLoop runs every client against the server until dur has passed.
func (p *population) closedLoop(env *serveEnv, seed int64, dur time.Duration) loopResult {
	n := len(env.clients)
	var out loopResult
	out.logs = make([][]writeRecord, n)
	lats := make([][numKinds][]time.Duration, n)
	ends := make([][]time.Duration, n)
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := newDeck(p, seed, c, n)
			call := clientCaller(env.clients[c])
			fps := append([]string(nil), p.fp0...)
			for time.Now().Before(deadline) {
				op := d.next()
				t0 := time.Now()
				p.exec(call, &op, fps)
				lats[c][op.kind] = append(lats[c][op.kind], time.Since(t0))
				ends[c] = append(ends[c], time.Since(start))
				tallies[c].attempted++
				if p.write {
					out.logs[c] = append(out.logs[c], op.record())
				} else {
					p.checkRead(&tallies[c], &op)
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for c := 0; c < n; c++ {
		for k := range lats[c] {
			out.lat[k] = append(out.lat[k], lats[c][k]...)
		}
		out.ends = append(out.ends, ends[c]...)
		out.ops += int(tallies[c].attempted)
		out.t.add(tallies[c])
	}
	return out
}

// verify completes a loop's checks: serve-write replies are checked here,
// after the timed phase, against replicas replayed in the same order. The
// clients' nets are private, so each client's log replays on its own.
func (p *population) verify(lr *loopResult) error {
	if !p.write {
		return nil
	}
	tallies := make([]tally, len(lr.logs))
	errs := make([]error, len(lr.logs))
	var wg sync.WaitGroup
	for c, log := range lr.logs {
		wg.Add(1)
		go func(c int, log []writeRecord) {
			defer wg.Done()
			errs[c] = p.verifyWrite(&tallies[c], log)
		}(c, log)
	}
	wg.Wait()
	for c := range tallies {
		if errs[c] != nil {
			return fmt.Errorf("verifying replies: %w", errs[c])
		}
		lr.t.add(tallies[c])
	}
	return nil
}

func runServe(cfg config) (childResult, error) {
	res := childResult{Metrics: map[string]float64{}}
	write := cfg.workload == "serve-write"
	pop, err := loadPopulation(cfg.input, write)
	if err != nil {
		return res, err
	}
	res.Report = append(res.Report, pop.describe()...)
	clients := nproc()

	// Set-up: server start, registration and warm-up.
	t0 := time.Now()
	env, err := startServe(clients)
	if err != nil {
		return res, err
	}
	defer env.close()
	if err := pop.registerAll(clientCaller(env.clients[0])); err != nil {
		return res, fmt.Errorf("registering the population: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return res, nil
	}
	if cfg.trace {
		return serveTraced(cfg, pop, env, res)
	}

	ph := startTimed()
	lr := pop.closedLoop(env, cfg.seed, time.Duration(cfg.seconds)*time.Second)
	ph.stop(res.Metrics, float64(lr.ops))
	if err := pop.verify(&lr); err != nil {
		return res, err
	}

	var all []float64
	for k := range lr.lat {
		all = append(all, durationsUS(lr.lat[k])...)
	}
	res.Metrics["ops_per_s"] = windowRate(lr.ends, lr.elapsed)
	res.Metrics["latency_p50_ms"] = median(all) / 1e3
	res.Report = append(res.Report, routeReport(&lr)...)
	res.fold(lr.t, false)
	return res, nil
}

func (p *population) describe() []string {
	var secs []float64
	textBytes := 0
	for i, s := range p.sizes {
		secs = append(secs, float64(s))
		textBytes += len(p.texts[i])
	}
	s := sortedCopy(secs)
	lines := []string{fmt.Sprintf("input: %d resident nets, %d bytes of tree text (registry capacity %d, result cache %d); sections/net p10 %.0f p50 %.0f p90 %.0f max %.0f",
		len(p.sizes), textBytes, engine.DefaultRegistryEntries, engine.DefaultCacheEntries, quantileOf(s, 0.1), quantileOf(s, 0.5), quantileOf(s, 0.9), s[len(s)-1])}
	if p.write {
		textBytes = 0
		for _, txt := range p.register {
			textBytes += len(txt)
		}
		lines = append(lines, fmt.Sprintf("input: registration pool of %d nets, %d bytes, %d to %d sections", len(p.register), textBytes, serveMinSections, registerMaxSecs))
	}
	var under, total float64
	for _, txt := range p.texts {
		t, err := rlctree.ParseString(txt)
		if err != nil {
			continue
		}
		sums := t.ElmoreSums()
		for k := range sums.SR {
			total++
			if m, err := core.FromSums(sums.SR[k], sums.SL[k]); err == nil && m.Zeta() < 1 {
				under++
			}
		}
	}
	return append(lines, fmt.Sprintf("input: zeta<1 share %.4f of resident nodes", ratio(under, total)))
}

func routeReport(lr *loopResult) []string {
	var out []string
	for k, l := range lr.lat {
		if len(l) == 0 {
			continue
		}
		xs := durationsUS(l)
		out = append(out, fmt.Sprintf("%s: %d requests, p50 %.1f us, p99 %.1f us (0: fewer than 10 samples beyond it)", routes[k], len(l), median(xs), p99(xs)))
	}
	return append(out, fmt.Sprintf("ops_per_s: %d requests in %.2f s from %d clients; latency_p50_ms over all requests", lr.ops, lr.elapsed.Seconds(), len(lr.logs)))
}

// routeMetric names the client-observed metrics of a route.
var routeMetric = [numKinds]struct{ p50, p99 string }{
	opDelay:    {"delay_p50_us", "delay_p99_us"},
	opAnalyze:  {"analyze_p50_us", ""},
	opBatch:    {"batch_p50_us", ""},
	opEdit:     {"edit_p50_us", "edit_p99_us"},
	opRegister: {"register_p50_us", ""},
}

var handlerMetric = [numKinds]string{
	"eedsrv.delay_handler_us", "eedsrv.analyze_handler_us", "eedsrv.batch_handler_us",
	"eedsrv.edit_handler_us", "eedsrv.register_handler_us",
}

// serveTraced is the traced serve run: an untraced closed-loop phase for
// the client-observed latencies and the program's counters, the deck
// replayed in process through the server's handler with no socket, and
// the engine calls those handlers make, timed on a twin registry.
func serveTraced(cfg config, pop *population, env *serveEnv, res childResult) (childResult, error) {
	m := res.Metrics
	dur := time.Duration(cfg.seconds) * time.Second / 2
	rt := newRTReader()
	o0, r0 := snapObs(), rt.read()
	lr := pop.closedLoop(env, cfg.seed, dur)
	o1, r1 := snapObs(), rt.read()
	if err := pop.verify(&lr); err != nil {
		return res, err
	}
	for k, l := range lr.lat {
		xs := durationsUS(l)
		if name := routeMetric[k].p50; name != "" {
			m[name] = median(xs)
		}
		if name := routeMetric[k].p99; name != "" {
			m[name] = p99(xs)
		}
	}
	m["runtime.gc_cpu_share"] = gcShare(r0, r1)
	m["runtime.heap_live_mib"] = float64(r1.liveBytes) / (1 << 20)
	hits, misses := counterDelta(o0, o1, "eed_registry_hits_total"), counterDelta(o0, o1, "eed_registry_misses_total")
	m["engine.registry_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.registry_evictions_per_op"] = counterDelta(o0, o1, "eed_registry_evictions_total") / float64(lr.ops)
	ch, cm := counterDelta(o0, o1, "eed_engine_cache_hits_total"), counterDelta(o0, o1, "eed_engine_cache_misses_total")
	m["engine.cache_hit_ratio"] = ratio(ch, ch+cm)
	m["incr.resyncs_per_edit"] = ratio(counterDelta(o0, o1, "eed_incr_resyncs_total"), counterDelta(o0, o1, "eed_incr_edits_total"))
	res.Report = append(res.Report, routeReport(&lr)...)

	hr, err := pop.handlerReplay(cfg.seed, dur/2)
	if err != nil {
		return res, err
	}
	for k := range hr.handler {
		m[handlerMetric[k]] = median(hr.handler[k])
	}
	m["eedsrv.encode_ns_per_node"] = median(hr.encodePerNode)
	// The dominant route explains the client-observed latency: delay in
	// serve-read, edit in serve-write.
	dom := opDelay
	if pop.write {
		dom = opEdit
	}
	enc, dec := median(hr.encode[dom]), median(hr.decode[dom])
	m["eedclient.encode_us"], m["eedclient.decode_us"] = enc, dec
	m["eedclient.transport_us"] = median(durationsUS(lr.lat[dom])) - m[handlerMetric[dom]] - enc - dec
	res.Report = append(res.Report, fmt.Sprintf("handler replay: %d requests in process; transport_us derived on %s", hr.ops, routes[dom]))

	if err := pop.twinRegistry(m, cfg.seed); err != nil {
		return res, err
	}
	res.fold(lr.t, true)
	return res, nil
}

// replayResult holds in-process handler timings per route, in µs.
type replayResult struct {
	handler, encode, decode [numKinds][]float64
	encodePerNode           []float64 // ns per node of json.Marshal(AnalyzeResponse)
	ops                     int
}

// handlerReplay registers the population on a fresh server and replays a
// seeded deck through Server.Handler().ServeHTTP into a recorder, timing
// the client's JSON encode, the handler and the client's JSON decode
// apart.
func (p *population) handlerReplay(seed int64, dur time.Duration) (replayResult, error) {
	var rr replayResult
	srv := eedsrv.New(eedsrv.Options{})
	h := srv.Handler()
	var kind opKind
	call := func(route string, req, resp any) error {
		t0 := time.Now()
		body, err := json.Marshal(req)
		t1 := time.Now()
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		t2 := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", route, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			return err
		}
		t3 := time.Now()
		rr.encode[kind] = append(rr.encode[kind], us(t1.Sub(t0)))
		rr.handler[kind] = append(rr.handler[kind], us(t2.Sub(t1)))
		rr.decode[kind] = append(rr.decode[kind], us(t3.Sub(t2)))
		if ar, ok := resp.(*eedsrv.AnalyzeResponse); ok && len(ar.Nodes) > 0 {
			t4 := time.Now()
			if _, err := json.Marshal(ar); err != nil {
				return err
			}
			rr.encodePerNode = append(rr.encodePerNode, ns(time.Since(t4))/float64(len(ar.Nodes)))
		}
		return nil
	}
	kind = opRegister
	if err := p.registerAll(call); err != nil {
		return rr, err
	}
	rr = replayResult{}
	d := newDeck(p, seed+1, 0, 1)
	fps := append([]string(nil), p.fp0...)
	deadline := time.Now().Add(dur)
	for rr.ops < 200 || time.Now().Before(deadline) {
		op := d.next()
		kind = op.kind
		if p.exec(call, &op, fps); op.err != nil {
			return rr, op.err
		}
		rr.ops++
	}
	return rr, nil
}

// twinRegistry times, on a registry of its own, the engine calls the
// handlers make.
func (p *population) twinRegistry(m map[string]float64, seed int64) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 99))
	reg := engine.NewRegistry(engine.New(engine.Options{}), 0)
	texts := p.texts
	if p.write {
		texts = append(append([]string(nil), texts...), p.register[:64]...)
	}
	var parse time.Duration
	var sections int
	var puts []float64
	var residents []*engine.Resident
	for _, txt := range texts {
		t0 := time.Now()
		tree, err := rlctree.ParseLimits(strings.NewReader(txt), guard.Limits{})
		parse += time.Since(t0)
		if err != nil {
			return err
		}
		sections += tree.Len()
		t1 := time.Now()
		res, hit, err := reg.PutInfo(tree)
		if err != nil {
			return err
		}
		if !hit {
			puts = append(puts, us(time.Since(t1)))
		}
		residents = append(residents, res)
	}
	residents = residents[:len(p.texts)]
	if p.write {
		m["rlctree.parse_ns_per_section"] = ns(parse) / float64(sections)
		m["engine.registry_put_us"] = median(puts)
	}

	var fps []rlctree.Fingerprint
	for _, r := range residents {
		fps = append(fps, r.Fingerprint())
	}
	var lookups []float64
	for b := 0; b < 200; b++ {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			if _, ok := reg.Lookup(fps[(b*100+i)%len(fps)]); !ok {
				return fmt.Errorf("twin registry lost a net")
			}
		}
		lookups = append(lookups, ns(time.Since(t0))/100)
	}
	m["engine.registry_lookup_ns"] = median(lookups)

	var at, full, edit, rekey []float64
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(residents))
		node := nodeName(rng.Intn(p.sizes[j]))
		err := residents[j].Do(func(sess *engine.Session, tr *rlctree.Tree) error {
			t0 := time.Now()
			_, err := sess.AnalyzeAt(tr.Section(node))
			at = append(at, us(time.Since(t0)))
			return err
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < 300; i++ {
		j := rng.Intn(len(residents))
		node := nodeName(rng.Intn(p.sizes[j]))
		value := (1 + rng.Float64()*199) * 1e-15
		err := residents[j].Do(func(sess *engine.Session, tr *rlctree.Tree) error {
			sink := tr.Section(node)
			if p.write {
				t0 := time.Now()
				if _, err := sess.EditAndAnalyze(ctx, []engine.SectionEdit{{Section: sink, Elem: rlctree.ElemC, Value: value}}, sink); err != nil {
					return err
				}
				edit = append(edit, us(time.Since(t0)))
				t1 := time.Now()
				reg.Rekey(residents[j])
				rekey = append(rekey, ns(time.Since(t1)))
			}
			// After an edit the result cache misses, as in serve-write;
			// serve-read analyzes unchanged nets, which hit.
			t2 := time.Now()
			_, err := sess.Analyze(ctx)
			full = append(full, us(time.Since(t2)))
			return err
		})
		if err != nil {
			return err
		}
	}
	m["engine.session_analyze_at_us"] = median(at)
	m["engine.session_analyze_us"] = median(full)
	if p.write {
		m["engine.session_edit_analyze_us"] = median(edit)
		m["engine.registry_rekey_ns"] = median(rekey)
	}
	return nil
}
