package shard

import (
	"io"

	"repro/internal/metrics"
)

// SelfHealMetrics declares the shared counter set for the self-healing
// machinery — failure detector, hinted handoff, anti-entropy — exposed
// on a shard's /metrics as the granula_selfheal_* family. One instance
// is threaded through the detector, replicator, drainer, and sweep so
// operators see the whole convergence story in one place; a component
// built without one counts into a private set.
type SelfHealMetrics struct {
	reg         *metrics.Registry
	transitions metrics.CounterVec // detector transitions by target nodeState
	pending     *metrics.Sampled   // pending-hint gauge, bound by SetHintGauge
	nodeState   *metrics.Sampled   // per-node verdict, bound by SetDetector

	// Health probes by outcome.
	probesOK   *metrics.Counter
	probesMiss *metrics.Counter

	// Hinted handoff by event.
	hintsRecorded    *metrics.Counter
	hintsDrained     *metrics.Counter
	hintsDrainFailed *metrics.Counter

	// Anti-entropy by event.
	sweeps       *metrics.Counter
	sweepsPushed *metrics.Counter
	sweepsPulled *metrics.Counter
	sweepErrors  *metrics.Counter
}

// NewSelfHealMetrics returns an empty self-heal metrics set.
func NewSelfHealMetrics() *SelfHealMetrics {
	r := metrics.NewRegistry()
	m := &SelfHealMetrics{reg: r}
	m.transitions = r.CounterVec("granula_selfheal_detector_transitions_total", "Failure-detector state transitions by target state.", "to",
		nodeUp.String(), nodeSuspect.String(), nodeDown.String())
	probes := r.CounterVec("granula_selfheal_probes_total", "Health probes issued (and how many missed).", "outcome", "ok", "miss")
	m.probesOK, m.probesMiss = probes.With("ok"), probes.With("miss")
	hints := r.CounterVec("granula_selfheal_hints_total", "Hinted-handoff lifecycle counters.", "event", "recorded", "drained", "drain_failed")
	m.hintsRecorded, m.hintsDrained, m.hintsDrainFailed = hints.With("recorded"), hints.With("drained"), hints.With("drain_failed")
	m.pending = r.Sampled()
	sweeps := r.CounterVec("granula_selfheal_antientropy_total", "Anti-entropy sweep outcomes.", "event", "sweeps", "pushed", "pulled", "errors")
	m.sweeps, m.sweepsPushed, m.sweepsPulled, m.sweepErrors = sweeps.With("sweeps"), sweeps.With("pushed"), sweeps.With("pulled"), sweeps.With("errors")
	m.nodeState = r.Sampled()
	return m
}

// orPrivate substitutes a private set for a component built without a
// shared one.
func orPrivate(m *SelfHealMetrics) *SelfHealMetrics {
	if m == nil {
		return NewSelfHealMetrics()
	}
	return m
}

// pick chooses between the two sides of an outcome: its counters, or
// its label values.
func pick[T any](ok bool, yes, no T) T {
	if ok {
		return yes
	}
	return no
}

// SetHintGauge wires the pending-hint gauge (typically the journal's
// HintCount); the family is absent until then.
func (m *SelfHealMetrics) SetHintGauge(f func() int) {
	m.pending.Bind(func(e *metrics.Emitter) {
		e.Gauge("granula_selfheal_hints_pending", "Hints journaled and not yet delivered.", int64(f()))
	})
}

// SetDetector wires the per-node state gauge; the family is absent
// until then.
func (m *SelfHealMetrics) SetDetector(d *Detector) {
	m.nodeState.Bind(func(e *metrics.Emitter) {
		const name = "granula_selfheal_node_state"
		e.Header(name, "Failure-detector verdict per node (0=up, 1=suspect, 2=down).", "gauge")
		for _, ns := range d.snapshot() {
			e.Sample(name, "node", ns.ID, int64(ns.State))
		}
	})
}

// WritePrometheus renders the self-heal family in Prometheus text
// format, deterministic for a given state.
func (m *SelfHealMetrics) WritePrometheus(w io.Writer) { m.reg.Write(w) }
