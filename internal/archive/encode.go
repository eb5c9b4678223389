package archive

import (
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
// ES6 number form, strings HTML-escaped. In compact mode it writes what
// json.Marshal would instead: no newlines, no indent, no space after a
// colon. The fixed schema lets it skip encoding/json's reflection and,
// indented, its second, re-indenting pass. The Encoder and Marshal it
// replaces are kept in the tests as its oracles.
type encoder struct {
	buf     []byte
	keys    []string // scratch for sorting one map's keys
	err     error    // first unsupported value
	compact bool
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// AppendRecord appends the persisted form of one stored job to dst: the
// compact JSON object {"summary":…,"job":…,"version":…}, byte for byte
// what json.Marshal writes for a struct of those three members when
// summary is already compact JSON and version, 0, is left out. A NaN
// or infinite float is an error.
func AppendRecord(dst, summary []byte, j *Job, version uint64) ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf, e.err, e.compact = e.buf[:0], nil, true
	e.raw(`{"summary":`)
	e.buf = append(e.buf, summary...)
	e.raw(`,"job":`)
	e.job(j, 0)
	if version != 0 {
		e.raw(`,"version":`)
		e.buf = strconv.AppendUint(e.buf, version, 10)
	}
	e.raw("}")
	if e.err != nil {
		return nil, e.err
	}
	return append(dst, e.buf...), nil
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

// newline starts a line indented to depth; compact, it writes nothing.
func (e *encoder) newline(depth int) {
	if e.compact {
		return
	}
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
	e.buf = append(e.buf, '"')
	e.colon()
}

// colon separates a member name from its value.
func (e *encoder) colon() {
	if e.compact {
		e.raw(":")
	} else {
		e.raw(": ")
	}
}

// string writes s quoted, as AppendString does.
func (e *encoder) string(s string) { e.buf = AppendString(e.buf, s) }

// float writes f as AppendFloat does, noting NaN and ±Inf as the
// encoder's error.
func (e *encoder) float(f float64) {
	var ok bool
	if e.buf, ok = AppendFloat(e.buf, f); !ok && e.err == nil {
		e.err = fmt.Errorf("archive: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
}

const hexDigits = "0123456789abcdef"

// AppendString appends s to dst quoted as encoding/json writes a
// string: HTML's <, > and & as \u003c, \u003e and \u0026, control
// bytes as \n-style or \u00XX escapes, U+2028 and U+2029 escaped, and
// each byte of invalid UTF-8 as \ufffd. Plain ASCII with nothing to
// escape is copied in one piece.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f to dst as encoding/json writes a float64: 'f'
// format, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent unpadded. An integral f below 2^53 in magnitude, other than
// -0, is written as the integer it holds, which is what 'f' format
// writes for it, without the shortest-digits search: most environment
// samples and times are whole numbers. ok is false, and dst unchanged,
// for NaN and ±Inf, which JSON cannot hold.
func AppendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.Abs(f) < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(dst, i, 10), true
		}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
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
		e.colon()
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
