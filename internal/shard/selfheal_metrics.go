package shard

import (
	"fmt"
	"io"
	"sync"
)

// SelfHealMetrics is the shared counter set for the self-healing
// machinery — failure detector, hinted handoff, anti-entropy — exposed
// on a shard's /metrics as the granula_selfheal_* family. One instance
// is threaded through the detector, replicator, drainer, and sweep so
// operators see the whole convergence story in one place. The count*
// methods are no-ops on a nil receiver, so unmetered components need no
// guards.
type SelfHealMetrics struct {
	mu            sync.Mutex
	transitions   map[string]uint64 // detector transitions by target state
	probes        uint64
	probeMisses   uint64
	hintsRecorded uint64
	hintsDrained  uint64
	hintFailures  uint64
	sweeps        uint64
	sweepPushed   uint64
	sweepPulled   uint64
	sweepErrors   uint64

	// gauge hooks, set once at wiring time
	hintGauge func() int
	detector  *Detector
}

// NewSelfHealMetrics returns an empty self-heal metrics set.
func NewSelfHealMetrics() *SelfHealMetrics {
	return &SelfHealMetrics{transitions: map[string]uint64{}}
}

// SetHintGauge wires the pending-hint gauge (typically the journal's
// HintCount).
func (m *SelfHealMetrics) SetHintGauge(f func() int) {
	m.mu.Lock()
	m.hintGauge = f
	m.mu.Unlock()
}

// SetDetector wires the per-node state gauge.
func (m *SelfHealMetrics) SetDetector(d *Detector) {
	m.mu.Lock()
	m.detector = d
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countTransition(to NodeState) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.transitions[to.String()]++
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countProbe(ok bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.probes++
	if !ok {
		m.probeMisses++
	}
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countHintRecorded() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.hintsRecorded++
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countHintDrain(ok bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if ok {
		m.hintsDrained++
	} else {
		m.hintFailures++
	}
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countSweep(pushed, pulled int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sweeps++
	m.sweepPushed += uint64(pushed)
	m.sweepPulled += uint64(pulled)
	m.mu.Unlock()
}

func (m *SelfHealMetrics) countSweepError() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sweepErrors++
	m.mu.Unlock()
}

// Hints returns (recorded, drained) hint counters, for tests.
func (m *SelfHealMetrics) Hints() (recorded, drained uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hintsRecorded, m.hintsDrained
}

// Sweeps returns (sweeps, pushed, pulled) anti-entropy counters.
func (m *SelfHealMetrics) Sweeps() (sweeps, pushed, pulled uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweeps, m.sweepPushed, m.sweepPulled
}

// Transitions returns the detector transition count into a state.
func (m *SelfHealMetrics) Transitions(to NodeState) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transitions[to.String()]
}

// WritePrometheus renders the self-heal family in Prometheus text
// format, deterministic for a given state.
func (m *SelfHealMetrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintln(w, "# HELP granula_selfheal_detector_transitions_total Failure-detector state transitions by target state.")
	fmt.Fprintln(w, "# TYPE granula_selfheal_detector_transitions_total counter")
	for _, state := range []string{"up", "suspect", "down"} {
		fmt.Fprintf(w, "granula_selfheal_detector_transitions_total{to=%q} %d\n", state, m.transitions[state])
	}
	fmt.Fprintln(w, "# HELP granula_selfheal_probes_total Health probes issued (and how many missed).")
	fmt.Fprintln(w, "# TYPE granula_selfheal_probes_total counter")
	fmt.Fprintf(w, "granula_selfheal_probes_total{outcome=\"ok\"} %d\n", m.probes-m.probeMisses)
	fmt.Fprintf(w, "granula_selfheal_probes_total{outcome=\"miss\"} %d\n", m.probeMisses)
	fmt.Fprintln(w, "# HELP granula_selfheal_hints_total Hinted-handoff lifecycle counters.")
	fmt.Fprintln(w, "# TYPE granula_selfheal_hints_total counter")
	fmt.Fprintf(w, "granula_selfheal_hints_total{event=\"recorded\"} %d\n", m.hintsRecorded)
	fmt.Fprintf(w, "granula_selfheal_hints_total{event=\"drained\"} %d\n", m.hintsDrained)
	fmt.Fprintf(w, "granula_selfheal_hints_total{event=\"drain_failed\"} %d\n", m.hintFailures)
	if m.hintGauge != nil {
		fmt.Fprintln(w, "# HELP granula_selfheal_hints_pending Hints journaled and not yet delivered.")
		fmt.Fprintln(w, "# TYPE granula_selfheal_hints_pending gauge")
		fmt.Fprintf(w, "granula_selfheal_hints_pending %d\n", m.hintGauge())
	}
	fmt.Fprintln(w, "# HELP granula_selfheal_antientropy_total Anti-entropy sweep outcomes.")
	fmt.Fprintln(w, "# TYPE granula_selfheal_antientropy_total counter")
	fmt.Fprintf(w, "granula_selfheal_antientropy_total{event=\"sweeps\"} %d\n", m.sweeps)
	fmt.Fprintf(w, "granula_selfheal_antientropy_total{event=\"pushed\"} %d\n", m.sweepPushed)
	fmt.Fprintf(w, "granula_selfheal_antientropy_total{event=\"pulled\"} %d\n", m.sweepPulled)
	fmt.Fprintf(w, "granula_selfheal_antientropy_total{event=\"errors\"} %d\n", m.sweepErrors)
	if m.detector != nil {
		fmt.Fprintln(w, "# HELP granula_selfheal_node_state Failure-detector verdict per node (0=up, 1=suspect, 2=down).")
		fmt.Fprintln(w, "# TYPE granula_selfheal_node_state gauge")
		for _, ns := range m.detector.Snapshot() {
			fmt.Fprintf(w, "granula_selfheal_node_state{node=%q} %d\n", ns.ID, int(ns.State))
		}
	}
}
