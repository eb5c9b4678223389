// Package stream turns the Granula archive into a live stream. Batch
// Granula runs a job, archives it, then analyzes; this package holds
// the in-flight state of jobs that are still running — their platform
// -log records and environment samples arriving as sequenced events —
// so the serving layer can ingest events from external runners
// (POST /ingest/{jobID}), answer /query over the growing partial
// archive through an incremental columnar index, and tail jobs over
// SSE (GET /watch/{jobID}) with resumable offsets and windowed
// aggregation.
//
// Consistency model: every event carries a per-job sequence number.
// A job's accepted events are dense (seq 1..lastSeq); a batch whose
// first new event is not lastSeq+1 is rejected with a gap error, and
// events at or below lastSeq are idempotently skipped, so replaying an
// acked batch is always safe. When the terminal "seal" event is
// accepted the live state is assembled into a normal archive job —
// byte-identical to what the batch pipeline would have produced from
// the same records — and handed to the durable store.
package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Event types. The start/end/info kinds mirror trace.Record events;
// env carries one envmon sample; seal terminates the stream.
const (
	typeStart = "start"
	typeEnd   = "end"
	typeInfo  = "info"
	typeEnv   = "env"
	TypeSeal  = "seal"
)

// Terminal job states carried by a seal event.
const (
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Event is one sequenced observation in a job's live stream. Exactly
// the fields for its type are meaningful; the wire format is one JSON
// object per line.
type Event struct {
	// Seq is the 1-based, per-job, dense sequence number.
	Seq uint64 `json:"seq"`
	// Type is one of start, end, info, env, seal.
	Type string `json:"type"`
	// Time is the event's timestamp in job (simulated) seconds.
	Time float64 `json:"time"`

	// Operation fields (start/end/info), mirroring trace.Record.
	Op      string `json:"op,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Actor   string `json:"actor,omitempty"`
	Mission string `json:"mission,omitempty"`
	Key     string `json:"key,omitempty"`
	Value   string `json:"value,omitempty"`

	// Environment-sample fields (env).
	Node string  `json:"node,omitempty"`
	Kind string  `json:"kind,omitempty"`
	Used float64 `json:"used,omitempty"`

	// Seal fields.
	Platform  string `json:"platform,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	State     string `json:"state,omitempty"`
}

// maxLineBytes bounds one encoded event line on the ingest path.
const maxLineBytes = 1 << 20

// validate checks the event's shape independent of any job state (the
// sequence-continuity and tree checks happen at apply time).
func (e *Event) validate() error {
	if e.Seq == 0 {
		return fmt.Errorf("stream: event needs seq >= 1")
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < 0 {
		return fmt.Errorf("stream: event %d: bad time %v", e.Seq, e.Time)
	}
	switch e.Type {
	case typeStart:
		if e.Op == "" {
			return fmt.Errorf("stream: event %d: start needs op", e.Seq)
		}
	case typeEnd:
		if e.Op == "" {
			return fmt.Errorf("stream: event %d: end needs op", e.Seq)
		}
	case typeInfo:
		if e.Op == "" || e.Key == "" {
			return fmt.Errorf("stream: event %d: info needs op and key", e.Seq)
		}
	case typeEnv:
		if e.Node == "" || e.Kind == "" {
			return fmt.Errorf("stream: event %d: env needs node and kind", e.Seq)
		}
		if math.IsNaN(e.Used) || math.IsInf(e.Used, 0) {
			return fmt.Errorf("stream: event %d: bad used %v", e.Seq, e.Used)
		}
	case TypeSeal:
		if e.Platform == "" {
			return fmt.Errorf("stream: event %d: seal needs platform", e.Seq)
		}
		switch e.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			return fmt.Errorf("stream: event %d: seal needs state done|failed|canceled, got %q", e.Seq, e.State)
		}
	default:
		return fmt.Errorf("stream: event %d: unknown type %q", e.Seq, e.Type)
	}
	return nil
}

// DecodeEvents parses a JSON-lines ingest body: one event object per
// line, blank lines skipped, unknown fields rejected. Every decoded
// event is validated.
func DecodeEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		// Trailing garbage after the object is malformed input, not a
		// second event (events are line-delimited).
		if dec.More() {
			return nil, fmt.Errorf("stream: line %d: trailing data after event", lineNo)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return out, nil
}

// EncodeEvents renders events as a JSON-lines body, the inverse of
// DecodeEvents. It is used both by ingest clients and to persist
// accepted batches through the WAL.
func EncodeEvents(events []Event) ([]byte, error) {
	var buf bytes.Buffer
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}
