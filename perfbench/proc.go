package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eedtree/internal/obs"
)

// peakRSSMiB returns this process's VmHWM in MiB. VmHWM is a lifetime
// high-water mark, which is why every workload runs in a process of its
// own: a workload run after another would report the other's peak.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssMiB returns this process's current resident set size in MiB.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler reads the resident set size every interval until finish.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, rssMiB())
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// timedPhase brackets a workload's timed region: heap allocation and CPU
// time at both ends, the resident set sampled throughout.
type timedPhase struct {
	rt  *rtReader
	r0  rtSample
	c0  time.Duration
	rss *rssSampler
}

func startTimed() *timedPhase {
	p := &timedPhase{rt: newRTReader(), rss: startRSSSampler(20 * time.Millisecond)}
	p.r0, p.c0 = p.rt.read(), cpuTime()
	return p
}

// stop ends the phase and records its per-op end-to-end metrics over ops
// operations. The memory metric is the 90th percentile of the sampled
// resident set, not its maximum: the maximum is set by when the garbage
// collector happens to run and moves by a quarter between identical runs.
func (p *timedPhase) stop(m map[string]float64, ops float64) {
	r1, c1 := p.rt.read(), cpuTime()
	m["alloc_kb_per_op"] = float64(r1.allocBytes-p.r0.allocBytes) / 1024 / ops
	m["cpu_us_per_op"] = us(c1-p.c0) / ops
	m["rss_p90_mib"] = quantileOf(sortedCopy(p.rss.finish()), 0.9)
	m["peak_rss_mib"] = peakRSSMiB()
}

// windowRate is the median count of operations completed per second over
// the run's whole one-second windows; ends are completion times since the
// start of the run.
func windowRate(ends []time.Duration, elapsed time.Duration) float64 {
	n := int(elapsed / time.Second)
	if n < 1 {
		return float64(len(ends)) / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if w := int(e / time.Second); w < n {
			counts[w]++
		}
	}
	return median(counts)
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a point-in-time read of the runtime/metrics this benchmark
// uses. Reading runtime/metrics does not stop the world, unlike
// runtime.ReadMemStats, so it may sit next to timed calls.
type rtSample struct {
	allocBytes uint64  // /gc/heap/allocs:bytes, cumulative
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds, cumulative
	totalCPU   float64 // /cpu/classes/total:cpu-seconds, cumulative
	liveBytes  uint64  // /gc/heap/live:bytes
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// rtReader reuses one sample slice so that reading allocates nothing.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	r := &rtReader{s: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		r.s[i].Name = n
	}
	return r
}

func (r *rtReader) read() rtSample {
	metrics.Read(r.s)
	var out rtSample
	if v := r.s[0].Value; v.Kind() == metrics.KindUint64 {
		out.allocBytes = v.Uint64()
	}
	if v := r.s[1].Value; v.Kind() == metrics.KindFloat64 {
		out.gcCPU = v.Float64()
	}
	if v := r.s[2].Value; v.Kind() == metrics.KindFloat64 {
		out.totalCPU = v.Float64()
	}
	if v := r.s[3].Value; v.Kind() == metrics.KindUint64 {
		out.liveBytes = v.Uint64()
	}
	return out
}

// allocs returns the cumulative heap bytes allocated by the process.
func (r *rtReader) allocs() uint64 {
	metrics.Read(r.s[:1])
	if v := r.s[0].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// gcShare is the share of process CPU the garbage collector took
// between two samples.
func gcShare(a, b rtSample) float64 { return ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU) }

// obsSnap is a copy of the program's own obs registry: counters and
// histogram buckets, read through its JSON exposition. Deltas of two
// snapshots give the program's counts for the work between them.
type obsSnap struct {
	Counters   map[string]uint64       `json:"counters"`
	Histograms map[string]obsHistogram `json:"histograms"`
}

type obsHistogram struct {
	Buckets []struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"` // cumulative
	} `json:"buckets"`
	Count uint64 `json:"count"`
}

func snapObs() obsSnap {
	var buf bytes.Buffer
	var s obsSnap
	if err := obs.Default().WriteJSON(&buf); err != nil {
		return s
	}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		return obsSnap{}
	}
	return s
}

// counterDelta is the growth of counter name from a to b.
func counterDelta(a, b obsSnap, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// histQuantile estimates quantile q of the samples histogram name gained
// between a and b, interpolating inside the bucket the way obs does. It
// returns 0 when no samples arrived.
func histQuantile(a, b obsSnap, name string, q float64) float64 {
	hb, ok := b.Histograms[name]
	if !ok {
		return 0
	}
	ha := a.Histograms[name]
	counts := make([]float64, len(hb.Buckets))
	total := 0.0
	for i := range hb.Buckets {
		cum := float64(hb.Buckets[i].Count)
		if i < len(ha.Buckets) {
			cum -= float64(ha.Buckets[i].Count)
		}
		counts[i] = cum
		if i > 0 {
			counts[i] = cum - total
		}
		total = cum
	}
	if total <= 0 {
		return 0
	}
	rank := q * total
	cum, lower := 0.0, 0.0
	for i, c := range counts {
		prev := cum
		cum += c
		upper, err := strconv.ParseFloat(hb.Buckets[i].LE, 64)
		if err != nil || math.IsInf(upper, 1) { // +Inf: clamp to the last finite bound
			return lower
		}
		if cum >= rank && c > 0 {
			return lower + (upper-lower)*(rank-prev)/c
		}
		lower = upper
	}
	return lower
}

// histCount is the number of samples histogram name gained from a to b.
func histCount(a, b obsSnap, name string) float64 {
	return float64(b.Histograms[name].Count - a.Histograms[name].Count)
}

// microseconds and friends convert durations for reporting.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
