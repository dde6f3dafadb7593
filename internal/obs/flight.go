package obs

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the request-scoped half of the observability
// layer: where counters and histograms aggregate, the recorder keeps the
// last N *wide events* — one structured record per request or pipeline
// unit carrying everything needed to reconstruct that unit after the
// fact (request ID, route, net fingerprint, status, guard class,
// degradation reason, cache hit/miss, queue wait, per-stage durations,
// retry attempt). It is always on: Record costs one atomic sequence bump
// plus a copy into a preallocated slot under an uncontended per-slot
// mutex, and allocates nothing. Slow and error events additionally land
// in a small bounded capture buffer together with their full span tree,
// so the expensive evidence is retained exactly when it is interesting.

// maxStages bounds the per-stage duration breakdown carried inline by a
// WideEvent. Stages beyond the cap are dropped (the total still covers
// them); the inline array is what keeps Record allocation-free.
const maxStages = 8

// StageDur is one named stage duration inside a wide event.
type StageDur struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// WideEvent is one flight-recorder record. Events are built by exactly
// one goroutine (the request handler or pipeline worker that owns the
// unit of work) and handed to FlightRecorder.Record when the unit
// finishes; the setters are nil-safe so call sites deep in the stack can
// annotate the event from a context without conditionals.
type WideEvent struct {
	Seq       uint64 // assigned by Record
	StartNS   int64  // unix nanoseconds at unit start
	RequestID string
	Attempt   int // client retry attempt, 1-based; 0 = unknown
	Route     string
	Net       string // net fingerprint or name, when resolved
	Status    int    // HTTP status, or 0 for non-HTTP units
	Class     string // guard class on failure
	Degraded  string // degradation reason, e.g. "rc_elmore"
	Cache     string // "hit" or "miss" against the resident registry
	QueueNS   int64  // time spent waiting for an execution slot
	TotalNS   int64
	Err       string
	Captured  bool // true when the capture buffer retained the span tree

	nstages int
	stages  [maxStages]StageDur
}

// SetNet annotates the resolved net fingerprint or name.
func (e *WideEvent) SetNet(net string) {
	if e != nil {
		e.Net = net
	}
}

// SetStatus annotates the HTTP status.
func (e *WideEvent) SetStatus(status int) {
	if e != nil {
		e.Status = status
	}
}

// SetClass annotates the guard class of a failure.
func (e *WideEvent) SetClass(class string) {
	if e != nil {
		e.Class = class
	}
}

// SetDegraded annotates why the analysis degraded (e.g. "rc_elmore").
func (e *WideEvent) SetDegraded(reason string) {
	if e != nil {
		e.Degraded = reason
	}
}

// SetCache annotates the registry outcome: "hit" or "miss".
func (e *WideEvent) SetCache(outcome string) {
	if e != nil {
		e.Cache = outcome
	}
}

// SetErr annotates the failure message.
func (e *WideEvent) SetErr(err error) {
	if e != nil && err != nil {
		e.Err = err.Error()
	}
}

// AddStage appends one named stage duration. Stages beyond the inline
// capacity are dropped silently — the event's total still covers them.
func (e *WideEvent) AddStage(name string, d time.Duration) {
	if e == nil || e.nstages >= maxStages {
		return
	}
	e.stages[e.nstages] = StageDur{Name: name, NS: int64(d)}
	e.nstages++
}

// Stages returns the recorded stage durations. The slice aliases the
// event's inline storage; callers must not retain it past the event.
func (e *WideEvent) Stages() []StageDur {
	if e == nil {
		return nil
	}
	return e.stages[:e.nstages]
}

// wideEventJSON is the serialized form of a WideEvent.
type wideEventJSON struct {
	Seq       uint64     `json:"seq"`
	StartNS   int64      `json:"start_ns"`
	RequestID string     `json:"request_id,omitempty"`
	Attempt   int        `json:"attempt,omitempty"`
	Route     string     `json:"route,omitempty"`
	Net       string     `json:"net,omitempty"`
	Status    int        `json:"status,omitempty"`
	Class     string     `json:"class,omitempty"`
	Degraded  string     `json:"degraded,omitempty"`
	Cache     string     `json:"cache,omitempty"`
	QueueNS   int64      `json:"queue_ns,omitempty"`
	TotalNS   int64      `json:"total_ns"`
	Stages    []StageDur `json:"stages,omitempty"`
	Err       string     `json:"err,omitempty"`
	Captured  bool       `json:"captured,omitempty"`
}

func (e *WideEvent) toJSON() wideEventJSON {
	j := wideEventJSON{
		Seq:       e.Seq,
		StartNS:   e.StartNS,
		RequestID: e.RequestID,
		Attempt:   e.Attempt,
		Route:     e.Route,
		Net:       e.Net,
		Status:    e.Status,
		Class:     e.Class,
		Degraded:  e.Degraded,
		Cache:     e.Cache,
		QueueNS:   e.QueueNS,
		TotalNS:   e.TotalNS,
		Err:       e.Err,
		Captured:  e.Captured,
	}
	if e.nstages > 0 {
		j.Stages = append([]StageDur(nil), e.stages[:e.nstages]...)
	}
	return j
}

// MarshalJSON serializes the event including its inline stage array.
func (e *WideEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.toJSON())
}

// UnmarshalJSON is the inverse of MarshalJSON, for clients of the debug
// endpoints (tests, chipflow failure dumps).
func (e *WideEvent) UnmarshalJSON(b []byte) error {
	var j wideEventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*e = WideEvent{
		Seq:       j.Seq,
		StartNS:   j.StartNS,
		RequestID: j.RequestID,
		Attempt:   j.Attempt,
		Route:     j.Route,
		Net:       j.Net,
		Status:    j.Status,
		Class:     j.Class,
		Degraded:  j.Degraded,
		Cache:     j.Cache,
		QueueNS:   j.QueueNS,
		TotalNS:   j.TotalNS,
		Err:       j.Err,
		Captured:  j.Captured,
	}
	for i, s := range j.Stages {
		if i >= maxStages {
			break
		}
		e.stages[i] = s
		e.nstages++
	}
	return nil
}

// Capture pairs an interesting (slow or failed) wide event with its full
// span tree, when the request was traced.
type Capture struct {
	Event WideEvent `json:"event"`
	Spans *SpanNode `json:"spans,omitempty"`
}

// flightSlot is one preallocated ring entry. The mutex is uncontended in
// steady state (two writers collide only after a full ring wrap between
// their sequence claims) so locking costs one CAS; it exists to make
// concurrent Snapshot reads race-clean.
type flightSlot struct {
	mu sync.Mutex
	ev WideEvent
}

// FlightRecorder is a fixed-size ring of wide events plus a bounded
// capture buffer for slow/error events. Record never blocks on readers
// for more than a slot copy and never allocates.
type FlightRecorder struct {
	slots  []flightSlot
	mask   uint64
	seq    atomic.Uint64
	slowNS int64

	capMu   sync.Mutex
	caps    []Capture
	capNext int
	capN    int
}

// DefaultSlowThreshold marks events slow enough to capture when the
// recorder is built with slow <= 0.
const DefaultSlowThreshold = 250 * time.Millisecond

// NewFlightRecorder builds a recorder with the given ring size (rounded
// up to a power of two, minimum 16), capture-buffer size (minimum 1),
// and slow-capture threshold (<= 0 selects DefaultSlowThreshold).
func NewFlightRecorder(size, captures int, slow time.Duration) *FlightRecorder {
	n := uint64(16)
	for int(n) < size {
		n <<= 1
	}
	if captures < 1 {
		captures = 1
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	return &FlightRecorder{
		slots:  make([]flightSlot, n),
		mask:   n - 1,
		slowNS: int64(slow),
		caps:   make([]Capture, captures),
	}
}

// Len returns the ring capacity.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Record stores one finished event in the ring and returns its sequence
// number. If the event is interesting — an error status, a non-empty
// guard class, or slower than the capture threshold — it also lands in
// the capture buffer together with tr's span tree (tr may be nil). The
// hot path (cold capture buffer) is one atomic bump plus a slot copy.
func (f *FlightRecorder) Record(ev *WideEvent, tr *Trace) uint64 {
	if f == nil || ev == nil {
		return 0
	}
	interesting := ev.Status >= 400 || (ev.Status == 0 && ev.Class != "") || ev.TotalNS > f.slowNS
	ev.Captured = interesting
	seq := f.seq.Add(1)
	ev.Seq = seq
	sl := &f.slots[(seq-1)&f.mask]
	sl.mu.Lock()
	sl.ev = *ev
	sl.mu.Unlock()
	if interesting {
		c := Capture{Event: *ev}
		if tr != nil {
			tree := tr.Tree()
			c.Spans = &tree
		}
		f.capMu.Lock()
		f.caps[f.capNext] = c
		f.capNext = (f.capNext + 1) % len(f.caps)
		if f.capN < len(f.caps) {
			f.capN++
		}
		f.capMu.Unlock()
	}
	return seq
}

// Filter selects events from a Snapshot. Zero values match everything.
type Filter struct {
	Status    int    // exact HTTP status; 0 matches any
	Class     string // exact guard class
	Route     string // exact route
	RequestID string // exact request ID
	N         int    // max events returned; 0 means all retained
}

func (q Filter) match(ev *WideEvent) bool {
	if q.Status != 0 && ev.Status != q.Status {
		return false
	}
	if q.Class != "" && ev.Class != q.Class {
		return false
	}
	if q.Route != "" && ev.Route != q.Route {
		return false
	}
	if q.RequestID != "" && ev.RequestID != q.RequestID {
		return false
	}
	return true
}

// Snapshot returns the retained events matching q, newest first. It is
// safe against concurrent Record calls; each slot is copied under its
// lock and slots overwritten mid-scan simply surface their newer event.
func (f *FlightRecorder) Snapshot(q Filter) []WideEvent {
	if f == nil {
		return nil
	}
	out := make([]WideEvent, 0, len(f.slots))
	for i := range f.slots {
		sl := &f.slots[i]
		sl.mu.Lock()
		ev := sl.ev
		sl.mu.Unlock()
		if ev.Seq == 0 || !q.match(&ev) {
			continue
		}
		out = append(out, ev)
	}
	sortEventsBySeqDesc(out)
	if q.N > 0 && len(out) > q.N {
		out = out[:q.N]
	}
	return out
}

// Captures returns the retained slow/error captures, newest first.
func (f *FlightRecorder) Captures() []Capture {
	if f == nil {
		return nil
	}
	f.capMu.Lock()
	defer f.capMu.Unlock()
	out := make([]Capture, 0, f.capN)
	for i := 0; i < f.capN; i++ {
		// capNext-1 is the newest; walk backwards.
		idx := (f.capNext - 1 - i + len(f.caps)*2) % len(f.caps)
		out = append(out, f.caps[idx])
	}
	return out
}

func sortEventsBySeqDesc(evs []WideEvent) {
	// Insertion sort: the ring scan yields runs that are already nearly
	// ordered, the slice is bounded by the ring size, and this avoids
	// pulling sort's interface boxing into the package.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Seq > evs[j-1].Seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// defaultFlight is the process-wide recorder, shared by eedsrv and the
// engine pipeline the way Default() is shared by metric sites.
var defaultFlight atomic.Pointer[FlightRecorder]

// Sizes of the process-wide recorder: enough ring to hold a burst worth
// of requests and enough captures to debug one incident, at ~300 KiB
// total resident cost.
const (
	DefaultFlightEvents   = 1024
	DefaultFlightCaptures = 64
)

func init() { defaultFlight.Store(NewFlightRecorder(DefaultFlightEvents, DefaultFlightCaptures, 0)) }

// DefaultFlight returns the process-wide flight recorder.
func DefaultFlight() *FlightRecorder { return defaultFlight.Load() }

// SetDefaultFlight swaps the process-wide recorder (e.g. to resize the
// ring from a CLI flag before serving).
func SetDefaultFlight(f *FlightRecorder) {
	if f != nil {
		defaultFlight.Store(f)
	}
}

// eventKey carries a *WideEvent through a context.
type eventKey struct{}

// WithEvent returns a context carrying ev, so layers below the request
// middleware can annotate the in-flight wide event.
func WithEvent(ctx context.Context, ev *WideEvent) context.Context {
	if ev == nil {
		return ctx
	}
	return context.WithValue(ctx, eventKey{}, ev)
}

// EventFrom returns the wide event carried by ctx, or nil. The returned
// pointer's setters are nil-safe, so call sites never need a check.
func EventFrom(ctx context.Context) *WideEvent {
	ev, _ := ctx.Value(eventKey{}).(*WideEvent)
	return ev
}

// DetachEvent shadows any wide event carried by ctx with nil. An event is
// owned by one goroutine; work that fans out (batch items) detaches so
// concurrent annotations cannot race on the parent's record.
func DetachEvent(ctx context.Context) context.Context {
	if EventFrom(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, eventKey{}, (*WideEvent)(nil))
}
