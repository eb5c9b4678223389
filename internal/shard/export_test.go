package shard

import "io"

// Test-only exports for the external cluster tests (package shard_test),
// which live outside this package because they import internal/service.

// Owners is Map.owners.
func (m *Map) Owners(jobID string) []Node { return m.owners(jobID) }

// Down is Detector.isDown.
func (d *Detector) Down(nodeID string) bool { return d.isDown(nodeID) }

// WriteMetrics renders the router's counters.
func (rt *Router) WriteMetrics(w io.Writer) { rt.metrics.writePrometheus(w) }
