package stream

import (
	"encoding/json"
	"fmt"
	"io"
)

// SSE framing for /watch: one frame per event (or per closed window in
// windowed mode), with the frame ID carrying the stream sequence number
// so Last-Event-ID resumes are exact.

// WriteFrame writes one SSE frame: id, event name, and the JSON-encoded
// payload on a single data line.
func WriteFrame(w io.Writer, id uint64, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, b)
	return err
}

// WriteHeartbeat writes an SSE comment frame that keeps idle
// connections alive without disturbing event IDs.
func WriteHeartbeat(w io.Writer) error {
	_, err := io.WriteString(w, ": heartbeat\n\n")
	return err
}

// EventFrameName maps an event to its SSE event name ("op" for the
// operation-record kinds, "env", "seal").
func EventFrameName(e Event) string {
	switch e.Type {
	case typeStart, typeEnd, typeInfo:
		return "op"
	case typeEnv:
		return "env"
	case TypeSeal:
		return "seal"
	}
	return e.Type
}
