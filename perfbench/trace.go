package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one item (a net, a request, an optimization)
// share Item; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Item   int32  `json:"item"`
}

// recorder keeps spans in memory and writes them out once, at the end of
// the traced run, so that writing never lands inside a timed call.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, item int32) int32 {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Item: item})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].End = int64(time.Since(r.origin)) }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover: the layer's own time.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON lines under .bench_build/traces.
func (r *recorder) write(name string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
