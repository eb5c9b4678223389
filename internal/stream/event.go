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
// acked batch is always safe. A seal ends its batch: a batch with any
// event after its seal is refused whole.
//
// A job's operation records go to one monitor.Assembler as they are
// accepted — the assembler the batch pipeline runs too — which checks
// them and grows the job's operation tree; the event log is the only
// other copy of them. The log keeps the environment samples, nearly all
// of a job's events, as archive.EnvColumns, their only copy, and reads
// them back as events on demand. When the terminal "seal" event is
// accepted that tree is finished into a normal archive job, not
// assembled a second time, and is byte-identical to what the batch
// pipeline would have produced from the same records.
package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
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

// record returns the platform-log record a start, end or info event
// carries.
func (e *Event) record() (trace.Record, bool) {
	switch e.Type {
	case typeStart, typeEnd, typeInfo:
		return trace.Record{
			Time: e.Time, Op: e.Op, Parent: e.Parent, Actor: e.Actor, Mission: e.Mission,
			Event: trace.EventType(e.Type), Key: e.Key, Value: e.Value,
		}, true
	}
	return trace.Record{}, false
}

// maxLineBytes bounds one encoded event line on the ingest path.
const maxLineBytes = 1 << 20

// validate checks the event's shape independent of any job state (the
// sequence-continuity and tree checks happen at apply time). An event
// carrying a field its type does not use is refused: an operation
// record uses the operation fields, an env sample node, kind and used,
// a seal platform, algorithm and state.
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
	if *e != e.used() {
		return fmt.Errorf("stream: event %d: %s event carries fields its type does not use", e.Seq, e.Type)
	}
	return nil
}

// used returns e with only the fields its type uses; an event of an
// unknown type comes back whole.
func (e *Event) used() Event {
	u := Event{Seq: e.Seq, Type: e.Type, Time: e.Time}
	switch e.Type {
	case typeStart, typeEnd, typeInfo:
		u.Op, u.Parent, u.Actor, u.Mission, u.Key, u.Value = e.Op, e.Parent, e.Actor, e.Mission, e.Key, e.Value
	case typeEnv:
		u.Node, u.Kind, u.Used = e.Node, e.Kind, e.Used
	case TypeSeal:
		u.Platform, u.Algorithm, u.State = e.Platform, e.Algorithm, e.State
	default:
		return *e
	}
	return u
}

// DecodeEvents parses a JSON-lines ingest body: one event object per
// line, blank lines skipped, unknown fields rejected. Every decoded
// event is validated.
func DecodeEvents(r io.Reader) ([]Event, error) { return decodeEvents(r, false) }

// DecodeAcked parses a batch persisted when it was acked, as
// DecodeEvents does, except that the fields an event's type does not
// use are dropped before it is validated: events acked before such
// fields were refused were persisted with them, and nothing reads
// them, so every acked batch still replays.
func DecodeAcked(r io.Reader) ([]Event, error) { return decodeEvents(r, true) }

func decodeEvents(r io.Reader, acked bool) ([]Event, error) {
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
			if rerr := sc.Err(); rerr != nil {
				// A failed read (an oversized body, say) cut this last
				// line short: the read is the error, not the line.
				return nil, fmt.Errorf("stream: %w", rerr)
			}
			return nil, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		// Trailing garbage after the object is malformed input, not a
		// second event (events are line-delimited).
		if dec.More() {
			return nil, fmt.Errorf("stream: line %d: trailing data after event", lineNo)
		}
		if acked {
			e = e.used()
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
