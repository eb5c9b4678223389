// Package trace is the platform-log substrate shared by the simulated
// graph-processing platforms. Platforms emit structured operation records
// — start/end events annotated with an actor and a mission, plus free-form
// info records — through an Emitter, which hands each record to a sink the
// moment it is emitted. Granula's monitor (internal/monitor) assembles
// them into the operation tree defined by a performance model; the
// harness (internal/platforms) feeds its assembler from that sink while
// the job runs.
//
// Encode and Parse are a line-oriented text encoding of records, the
// shape of the log4j files the real Granula parses for Giraph. No run
// goes through it: an in-process platform reaches the assembler through
// the sink, and a platform outside the process streams its records to
// the service's /ingest endpoint as JSON lines. The benchmark driver
// (bench/) still times the codec as a stage.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// EventType distinguishes record kinds.
type EventType string

// Record event kinds.
const (
	EventStart EventType = "start"
	EventEnd   EventType = "end"
	EventInfo  EventType = "info"
)

// Record is one platform-log line.
type Record struct {
	// Time is the simulated timestamp in seconds.
	Time float64
	// Job identifies the job run.
	Job string
	// Op is the operation's unique ID within the job.
	Op string
	// Parent is the parent operation's ID; empty for the root operation.
	// Only meaningful on start records.
	Parent string
	// Actor names who performs the operation (e.g. "GiraphWorker-3").
	// Only meaningful on start records.
	Actor string
	// Mission names what is being done (e.g. "Compute"). Only meaningful
	// on start records.
	Mission string
	// Event is the record kind.
	Event EventType
	// Key/Value carry one info pair on info records.
	Key   string
	Value string
}

// OpRef identifies a started operation for an Emitter's End/Info calls.
type OpRef struct {
	id string
}

// valid reports whether the reference identifies an operation.
func (o OpRef) valid() bool { return o.id != "" }

// Root is the OpRef used as the parent of a job's top-level operation.
var Root = OpRef{}

// Emitter provides platforms with a convenient instrumentation API: it
// hands each record to its sink synchronously, in emit order. Operation
// IDs are deterministic sequence numbers within the job, keeping archives
// byte-stable across runs.
type Emitter struct {
	sink func(Record)
	job  string
	now  func() float64
	seq  int
}

// NewEmitter creates an emitter for one job that writes every record to
// sink. now supplies the current simulated time.
func NewEmitter(sink func(Record), job string, now func() float64) *Emitter {
	if sink == nil || now == nil {
		panic("trace: nil sink or clock")
	}
	return &Emitter{sink: sink, job: job, now: now}
}

// Job returns the job ID the emitter writes under.
func (e *Emitter) Job() string { return e.job }

// Start emits a start record for a new operation under parent and returns
// its reference.
func (e *Emitter) Start(parent OpRef, actor, mission string) OpRef {
	e.seq++
	op := OpRef{id: fmt.Sprintf("op-%06d", e.seq)}
	e.sink(Record{
		Time:    e.now(),
		Job:     e.job,
		Op:      op.id,
		Parent:  parent.id,
		Actor:   actor,
		Mission: mission,
		Event:   EventStart,
	})
	return op
}

// End emits the end record for op.
func (e *Emitter) End(op OpRef) {
	if !op.valid() {
		panic("trace: End of invalid OpRef")
	}
	e.sink(Record{
		Time:  e.now(),
		Job:   e.job,
		Op:    op.id,
		Event: EventEnd,
	})
}

// Info attaches a key/value observation to op.
func (e *Emitter) Info(op OpRef, key, value string) {
	if !op.valid() {
		panic("trace: Info on invalid OpRef")
	}
	e.sink(Record{
		Time:  e.now(),
		Job:   e.job,
		Op:    op.id,
		Event: EventInfo,
		Key:   key,
		Value: value,
	})
}

// Infof attaches a formatted observation to op.
func (e *Emitter) Infof(op OpRef, key, format string, args ...any) {
	e.Info(op, key, fmt.Sprintf(format, args...))
}

// Encode writes records to w in the line format, one record per line.
func Encode(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	var tbuf [32]byte
	for _, r := range records {
		bw.WriteString("GRANULA t=\"")
		// Float formatting never produces characters that need escaping,
		// so the quoted form is the bare digits.
		bw.Write(strconv.AppendFloat(tbuf[:0], r.Time, 'f', -1, 64))
		bw.WriteByte('"')
		writeField(bw, "job", r.Job)
		writeField(bw, "op", r.Op)
		writeField(bw, "event", string(r.Event))
		if r.Event == EventStart {
			writeField(bw, "parent", r.Parent)
			writeField(bw, "actor", r.Actor)
			writeField(bw, "mission", r.Mission)
		}
		if r.Event == EventInfo {
			writeField(bw, "key", r.Key)
			writeField(bw, "value", r.Value)
		}
		bw.WriteByte('\n')
	}
	// bufio's error is sticky; one check at flush covers every write above.
	return bw.Flush()
}

func writeField(bw *bufio.Writer, key, value string) {
	bw.WriteByte(' ')
	bw.WriteString(key)
	bw.WriteByte('=')
	// For printable ASCII without quote or backslash — every value the
	// simulated platforms emit — strconv.Quote is the identity plus
	// surrounding quotes; skip its rune-by-rune escape walk.
	if plainASCII(value) {
		bw.WriteByte('"')
		bw.WriteString(value)
		bw.WriteByte('"')
		return
	}
	bw.WriteString(strconv.Quote(value))
}

func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// Parse reads records in the line format, ignoring blank lines and lines
// not starting with the GRANULA marker (platforms interleave ordinary log
// output).
func Parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "GRANULA ") {
			continue
		}
		rec, err := parseLine(line[len("GRANULA "):])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine parses `key="quoted value"` pairs separated by spaces,
// dispatching each field into the record as it is scanned — no
// intermediate map, and unescaped values alias the line.
func parseLine(line string) (Record, error) {
	var rec Record
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return rec, fmt.Errorf("malformed field at %q", line[i:])
		}
		key := line[i : i+eq]
		i += eq + 1
		if i >= len(line) || line[i] != '"' {
			return rec, fmt.Errorf("unquoted value for %q", key)
		}
		// Find the closing quote, respecting escapes.
		j := i + 1
		for j < len(line) {
			if line[j] == '\\' {
				j += 2
				continue
			}
			if line[j] == '"' {
				break
			}
			j++
		}
		if j >= len(line) {
			return rec, fmt.Errorf("unterminated value for %q", key)
		}
		value, err := unquoteField(line[i : j+1])
		if err != nil {
			return rec, fmt.Errorf("bad value for %q: %w", key, err)
		}
		i = j + 1
		switch key {
		case "t":
			t, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return rec, fmt.Errorf("bad timestamp %q", value)
			}
			rec.Time = t
		case "job":
			rec.Job = value
		case "op":
			rec.Op = value
		case "parent":
			rec.Parent = value
		case "actor":
			rec.Actor = value
		case "mission":
			rec.Mission = value
		case "event":
			rec.Event = EventType(value)
		case "key":
			rec.Key = value
		case "value":
			rec.Value = value
		default:
			return rec, fmt.Errorf("unknown field %q", key)
		}
	}
	switch rec.Event {
	case EventStart, EventEnd, EventInfo:
	default:
		return rec, fmt.Errorf("bad event %q", rec.Event)
	}
	if rec.Op == "" {
		return rec, fmt.Errorf("missing op")
	}
	return rec, nil
}

// unquoteField undoes writeField's quoting. Values of printable ASCII
// without escapes — everything Encode's fast path emits — unquote to the
// interior substring with no allocation; anything else goes through
// strconv.Unquote for full escape handling.
func unquoteField(q string) (string, error) {
	if inner := q[1 : len(q)-1]; plainASCII(inner) {
		return inner, nil
	}
	return strconv.Unquote(q)
}
