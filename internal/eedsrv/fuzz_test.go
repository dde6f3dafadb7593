package eedsrv

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eedtree/internal/engine"
	"eedtree/internal/guard"
)

// fuzzServer is shared across fuzz iterations — one resident registry,
// tight limits so hostile bodies hit every bound.
var fuzzServer = sync.OnceValue(func() *Server {
	return New(Options{
		Engine:          engine.New(engine.Options{Workers: 1}),
		RegistryEntries: 4,
		MaxBatchItems:   8,
		MaxEdits:        8,
		MaxBodyBytes:    1 << 16,
		Limits:          guard.Limits{MaxSections: 64},
	})
})

var fuzzEndpoints = []string{"/v1/nets", "/v1/delay", "/v1/analyze", "/v1/batch", "/v1/edit"}

// FuzzDecodeRequest throws arbitrary bodies at every analysis endpoint.
// The body path is exactly production's: decodeRequest (strict JSON) then
// the handler. The invariants under fuzz: no panic, the response is
// always a JSON document, the status is from the documented set, and no
// input reaches an internal-classed 500 — a hostile body must always be
// the *client's* error.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(0, `{"tree": "a - 1 1n 1f"}`)
	f.Add(1, `{"tree": "a - 1 1n 1f", "node": "a"}`)
	f.Add(1, `{"net": "`+strings.Repeat("ab", 32)+`", "node": "x"}`)
	f.Add(2, `{"tree": "a - 1 1n 1f\nb a 2 1n 1f"}`)
	f.Add(3, `{"workers": 2, "items": [{"tree": "a - 1 1n 1f", "node": "a"}, {"net": "zz"}]}`)
	f.Add(3, `{"workers": -1, "items": [{"tree": "a - 1 1n 1f"}]}`)
	f.Add(4, `{"tree": "a - 1 1n 1f", "edits": [{"node": "a", "elem": "C", "value": 2e-15}], "node": "a"}`)
	f.Add(4, `{"tree": "a - 1 1n 1f", "edits": [{"node": "a", "elem": "R", "value": -1}], "node": "a"}`)
	f.Add(4, `{"tree": "a - 1 1n 1f", "edits": [{"node": "a", "elem": "L", "value": 1e308}], "node": "a"}`)
	f.Add(4, `{"tree": "a - 1 0 0", "edits": [{"node": "a", "elem": "C", "value": 1e308}], "node": "a"}`)
	f.Add(0, `{"tree": 42}`)
	f.Add(1, `{"node":`)
	f.Add(1, `{"node": "x"} trailing`)
	f.Add(1, `{"unknown": true}`)
	f.Add(2, ``)
	f.Add(3, `[1,2,3]`)
	f.Add(4, `{"edits": [{"value": 1e999}]}`)

	okStatus := map[int]bool{200: true, 400: true, 404: true, 413: true, 422: true, 504: true}

	f.Fuzz(func(t *testing.T, which int, body string) {
		s := fuzzServer()
		path := fuzzEndpoints[((which%len(fuzzEndpoints))+len(fuzzEndpoints))%len(fuzzEndpoints)]
		req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		if !okStatus[rec.Code] {
			t.Fatalf("%s: status %d outside the documented set\nbody: %q\nresponse: %s", path, rec.Code, body, rec.Body.Bytes())
		}
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("%s: non-JSON response (status %d): %v\nbody: %q", path, rec.Code, err, body)
		}
		if rec.Code == 200 {
			return
		}
		if path == "/v1/batch" {
			// Batch failures are per-item at 200; a non-200 here is a
			// request-level error with the standard body, checked below.
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Class == "" || er.Error.Status != rec.Code {
			t.Fatalf("%s: malformed error body (status %d): %s", path, rec.Code, rec.Body.Bytes())
		}
		if er.Error.Class == "internal" {
			t.Fatalf("%s: hostile body reached an internal error: %s\nbody: %q", path, rec.Body.Bytes(), body)
		}
	})
}
