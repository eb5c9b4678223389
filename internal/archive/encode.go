package archive

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// encoder writes the archive schema as encoding/json with a two-space
// indent would: fields in declaration order under their json tags,
// omitempty fields left out when empty, map keys sorted, floats in
// ES6 number form, strings HTML-escaped. The fixed schema lets it skip
// encoding/json's reflection and its second, re-indenting pass. The
// Encoder it replaces is kept in the tests as its oracle.
type encoder struct {
	buf  []byte
	keys []string // scratch for sorting one map's keys
	err  error    // first unsupported value
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

// newline starts a line indented to depth.
func (e *encoder) newline(depth int) {
	e.buf = append(e.buf, '\n')
	for range depth {
		e.buf = append(e.buf, "  "...)
	}
}

// field starts the object member name at depth, after a comma unless
// it is the object's first.
func (e *encoder) field(first bool, depth int, name string) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `": `...)
}

// string writes s quoted. Plain ASCII with nothing to escape is copied;
// anything else goes through encoding/json, whose escaping (control
// bytes, HTML's <>&, U+2028/2029, invalid UTF-8) is the contract.
func (e *encoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// float writes f as encoding/json does: 'f' format, or 'e' outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("archive: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// stringMap writes a non-empty map at depth with its keys sorted.
func (e *encoder) stringMap(m map[string]string, depth int) {
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.raw("{")
	for i, k := range e.keys {
		if i > 0 {
			e.raw(",")
		}
		e.newline(depth + 1)
		e.string(k)
		e.raw(": ")
		e.string(m[k])
	}
	e.newline(depth)
	e.raw("}")
	clear(e.keys)
	e.keys = e.keys[:0]
}

func (e *encoder) archive(a *Archive) {
	if a == nil {
		e.raw("null\n")
		return
	}
	e.raw("{")
	e.field(true, 1, "version")
	e.buf = strconv.AppendInt(e.buf, int64(a.Version), 10)
	e.field(false, 1, "jobs")
	switch {
	case a.Jobs == nil:
		e.raw("null")
	case len(a.Jobs) == 0:
		e.raw("[]")
	default:
		e.raw("[")
		for i, j := range a.Jobs {
			if i > 0 {
				e.raw(",")
			}
			e.newline(2)
			e.job(j, 2)
		}
		e.newline(1)
		e.raw("]")
	}
	e.newline(0)
	e.raw("}\n")
}

func (e *encoder) job(j *Job, depth int) {
	if j == nil {
		e.raw("null")
		return
	}
	e.raw("{")
	e.field(true, depth+1, "id")
	e.string(j.ID)
	e.field(false, depth+1, "platform")
	e.string(j.Platform)
	e.field(false, depth+1, "root")
	e.operation(j.Root, depth+1)
	if len(j.EnvSamples) > 0 {
		e.field(false, depth+1, "envSamples")
		e.raw("[")
		for i, s := range j.EnvSamples {
			if i > 0 {
				e.raw(",")
			}
			e.newline(depth + 2)
			e.envSample(s, depth+2)
		}
		e.newline(depth + 1)
		e.raw("]")
	}
	e.newline(depth)
	e.raw("}")
}

func (e *encoder) envSample(s EnvSample, depth int) {
	e.raw("{")
	e.field(true, depth+1, "time")
	e.float(s.Time)
	e.field(false, depth+1, "node")
	e.string(s.Node)
	if s.Kind != "" {
		e.field(false, depth+1, "kind")
		e.string(s.Kind)
	}
	e.field(false, depth+1, "used")
	e.float(s.Used)
	e.newline(depth)
	e.raw("}")
}

func (e *encoder) operation(o *Operation, depth int) {
	if o == nil {
		e.raw("null")
		return
	}
	e.raw("{")
	e.field(true, depth+1, "id")
	e.string(o.ID)
	e.field(false, depth+1, "actor")
	e.string(o.Actor)
	e.field(false, depth+1, "mission")
	e.string(o.Mission)
	e.field(false, depth+1, "start")
	e.float(o.Start)
	e.field(false, depth+1, "end")
	e.float(o.End)
	if len(o.Infos) > 0 {
		e.field(false, depth+1, "infos")
		e.stringMap(o.Infos, depth+1)
	}
	if len(o.Derived) > 0 {
		e.field(false, depth+1, "derived")
		e.stringMap(o.Derived, depth+1)
	}
	if len(o.Children) > 0 {
		e.field(false, depth+1, "children")
		e.raw("[")
		for i, c := range o.Children {
			if i > 0 {
				e.raw(",")
			}
			e.newline(depth + 2)
			e.operation(c, depth+2)
		}
		e.newline(depth + 1)
		e.raw("]")
	}
	e.newline(depth)
	e.raw("}")
}
