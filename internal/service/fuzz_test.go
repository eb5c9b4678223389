package service

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzJobRequest fuzzes the submit pipeline's pure half: JSON decode →
// validate → applyDefaults must never panic, must reject NaN/Inf and
// negative timeouts and negative or oversized sizes, and must leave any accepted
// request in a state the executor can run (positive sizes, a known
// graph kind, a deadline that converts to a non-negative Duration).
func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{"platform":"Giraph","algorithm":"BFS"}`,
		`{"platform":"PowerGraph","algorithm":"PageRank","vertices":100,"edges":400,"timeoutSeconds":1.5}`,
		`{"platform":"OpenG","algorithm":"WCC","graphKind":"rmat","seed":-3,"iterations":7,"nodes":4}`,
		`{"platform":"Giraph","algorithm":"BFS","timeoutSeconds":-1}`,
		`{"platform":"Giraph","algorithm":"BFS","vertices":-5}`,
		`{"platform":"Giraph","algorithm":"BFS","timeoutSeconds":1e308}`,
		`{"platform":"Giraph","algorithm":"BFS","graphKind":"mesh"}`,
		`{"platform":"","algorithm":""}`,
		`{"id":"job-0001"}`,
		`{`,
		`[]`,
		`null`,
		`{"platform":"Giraph","algorithm":"BFS","vertices":9223372036854775807}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // malformed JSON is the decoder's problem, not ours
		}
		if err := req.validate(); err != nil {
			return // rejected; nothing further may run
		}
		// Accepted requests must satisfy the executor's invariants.
		if req.Platform == "" || req.Algorithm == "" {
			t.Fatalf("validate accepted an unnamed job: %+v", req)
		}
		if req.Vertices < 0 || req.Edges < 0 || req.Nodes < 0 || req.Iterations < 0 {
			t.Fatalf("validate accepted negative sizes: %+v", req)
		}
		if req.Vertices > maxVertices || req.Edges > maxEdges || req.Nodes > maxNodes || req.Iterations > maxIterations {
			t.Fatalf("validate accepted oversized sizes: %+v", req)
		}
		if math.IsNaN(req.TimeoutSeconds) || math.IsInf(req.TimeoutSeconds, 0) || req.TimeoutSeconds < 0 {
			t.Fatalf("validate accepted a bad timeout: %v", req.TimeoutSeconds)
		}
		if d := time.Duration(req.TimeoutSeconds * float64(time.Second)); d < 0 {
			t.Fatalf("accepted timeout %v overflows time.Duration (%v)", req.TimeoutSeconds, d)
		}
		req.applyDefaults()
		if req.Vertices <= 0 || req.Edges <= 0 || req.Iterations <= 0 || req.Seed == 0 {
			t.Fatalf("applyDefaults left a zero field: %+v", req)
		}
		switch req.GraphKind {
		case "social", "rmat", "uniform":
		default:
			t.Fatalf("applyDefaults left unknown graph kind %q", req.GraphKind)
		}
	})
}
