package archive

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decoder reads the archive schema from JSON in one pass, straight into
// Archive, Job, Operation and EnvSample values, with the result
// encoding/json's Unmarshal gives for the same bytes: any member order,
// unknown members skipped, null a no-op except on pointers, maps and
// slices (which it clears), a repeated member decoded into what the
// earlier one left, strings unescaped with invalid UTF-8 replaced by
// U+FFFD, numbers parsed by strconv, and nesting limited to 10000
// levels. The one intended difference is key matching: encoding/json
// matches a member name case-insensitively when no field has it
// exactly, the decoder only exactly, and it refuses a member that would
// match a field only case-insensitively ("ID", "Start") rather than
// skip it. Actor, mission, info key, node and kind strings are interned
// per call, so the many samples and operations that share them share
// one copy.
type decoder struct {
	data    []byte
	off     int
	depth   int
	scratch []byte            // unescaped bytes of the last string
	strs    map[string]string // interned strings of this call
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var decoders = sync.Pool{New: func() any { return &decoder{strs: map[string]string{}} }}

// newDecoder returns a pooled decoder over data; free returns it.
func newDecoder(data []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.data, d.off, d.depth = data, 0, 0
	return d
}

func (d *decoder) free() {
	d.data = nil
	clear(d.strs)
	decoders.Put(d)
}

func (d *decoder) syntax(what string) error {
	return fmt.Errorf("archive: decode: %s at offset %d", what, d.off)
}

// mismatch reports a value of the wrong JSON type for a field.
func (d *decoder) mismatch(want string) error {
	return fmt.Errorf("archive: decode: want %s at offset %d", want, d.off)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	return d.skipSpace()
}

func (d *decoder) skipSpace() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword lit, which the next byte starts.
func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.syntax("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// begin starts a field holding an object ('{') or an array ('['):
// isNull reports a null instead, which the caller applies, and
// anything else is a mismatch.
func (d *decoder) begin(open byte) (isNull bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case open:
		return false, nil
	}
	if open == '[' {
		return false, d.mismatch("array")
	}
	return false, d.mismatch("object")
}

// nest enters an object or array at d.off.
func (d *decoder) nest() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.off++
	return nil
}

// object decodes the object at d.off member by member: member gets each
// name, unescaped and valid only until the next string is read, and
// must consume the value.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.nest(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("want object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("want ':' after object key")
		}
		d.off++
		d.peek()
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("want ',' or '}' after object member")
		}
	}
}

// array decodes the array at d.off: elem is called once per element,
// positioned at it, and must consume it.
func (d *decoder) array(elem func() error) error {
	if err := d.nest(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		d.peek()
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("want ',' or ']' after array element")
		}
	}
}

// unknown skips the value of a member no field has, unless its name
// matches one of fields case-insensitively (see decoder).
func (d *decoder) unknown(key []byte, fields ...string) error {
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return fmt.Errorf("archive: decode: member %q at offset %d: names are case-sensitive, want %q", key, d.off, f)
		}
	}
	return d.skip()
}

// skip consumes any one value, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("want a value")
}

// number consumes a number literal and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	data, i := d.data, d.off
	digits := func() bool {
		n := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.off = i
		return nil, d.syntax("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			return nil, d.syntax("invalid number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			return nil, d.syntax("invalid number")
		}
	}
	b := data[d.off:i]
	d.off = i
	return b, nil
}

// float decodes a float64 field: null leaves *f as it is.
func (d *decoder) float(f *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("number")
	}
	b, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("archive: decode: number %s out of range at offset %d", b, d.off)
	}
	*f = v
	return nil
}

// integer decodes a number into an integer field through set, which
// parses it; null leaves the field as it is.
func (d *decoder) integer(set func(b []byte) error) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("number")
	}
	b, err := d.number()
	if err != nil {
		return err
	}
	if set(b) != nil {
		return fmt.Errorf("archive: decode: number %s is not a valid integer here, at offset %d", b, d.off)
	}
	return nil
}

// str consumes a string and returns its unescaped bytes: a slice of
// the input when there is nothing to unescape, else of d.scratch,
// valid until the next call.
func (d *decoder) str() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		if c := d.data[i]; !plain[c] {
			if c == '"' {
				d.off = i + 1
				return d.data[start:i], nil
			}
			d.scratch = append(d.scratch[:0], d.data[start:i]...)
			return d.unquote(i)
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("unterminated string")
}

// plain marks the bytes a string holds as they are: printable ASCII
// but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote finishes the string whose plain prefix is in d.scratch from
// index i on, as encoding/json unquotes one.
func (d *decoder) unquote(i int) ([]byte, error) {
	data, b := d.data, d.scratch
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off, d.scratch = i+1, b
			return b, nil
		case c < 0x20:
			d.off = i
			return nil, d.syntax("control character in string")
		case c == '\\':
			if i+1 >= len(data) {
				d.off = len(data)
				return nil, d.syntax("unterminated string")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.off = i
					return nil, d.syntax("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := hex4u(data[i:]); utf16.DecodeRune(r, r2) != unicode.ReplacementChar {
						b = utf8.AppendRune(b, utf16.DecodeRune(r, r2))
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i
				return nil, d.syntax("invalid escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, unicode.ReplacementChar)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		}
	}
	d.off, d.scratch = len(data), b
	return nil, d.syntax("unterminated string")
}

// hex4 parses the four hex digits that start b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// hex4u parses a \uXXXX escape that starts b, or returns -1.
func hex4u(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// string decodes a string field: null leaves *s as it is.
func (d *decoder) string(s *string, intern bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("string")
	}
	b, err := d.str()
	if err != nil {
		return err
	}
	if intern {
		*s = d.intern(b)
	} else {
		*s = string(b)
	}
	return nil
}

// intern returns b as a string, one copy per distinct value per call.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// archive decodes an Archive into a.
func (d *decoder) archive(a *Archive) error {
	if isNull, err := d.begin('{'); isNull || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "version":
			return d.integer(func(b []byte) error {
				v, err := strconv.ParseInt(string(b), 10, 0)
				a.Version = int(v)
				return err
			})
		case "jobs":
			return decodeSlice(d, &a.Jobs, d.jobPtr)
		}
		return d.unknown(key, "version", "jobs")
	})
}

// decodeSlice decodes an array into *s element by element as
// encoding/json does: existing elements are decoded into, not
// replaced, the slice is cut to the array's length, and an empty array
// gives an empty, non-nil slice.
func decodeSlice[T any](d *decoder, s *[]T, elem func(*T) error) error {
	if isNull, err := d.begin('['); isNull || err != nil {
		*s = nil
		return err
	}
	cur := *s
	i := 0
	err := d.array(func() error {
		switch {
		case i < len(cur):
		case i < cap(cur):
			cur = cur[:i+1] // encoding/json decodes into the stale element
		default:
			var zero T
			cur = append(cur, zero)
		}
		i++
		return elem(&cur[i-1])
	})
	if i == 0 {
		cur = []T{}
	}
	*s = cur[:i]
	return err
}

// jobPtr decodes into *p, allocating a Job for a nil one.
func (d *decoder) jobPtr(p **Job) error {
	if isNull, err := d.begin('{'); isNull || err != nil {
		*p = nil
		return err
	}
	if *p == nil {
		*p = new(Job)
	}
	j := *p
	return d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.string(&j.ID, false)
		case "platform":
			return d.string(&j.Platform, false)
		case "root":
			return d.operationPtr(&j.Root)
		case "envSamples":
			return decodeSlice(d, &j.EnvSamples, d.envSample)
		}
		return d.unknown(key, "id", "platform", "root", "envSamples")
	})
}

func (d *decoder) envSample(s *EnvSample) error {
	if isNull, err := d.begin('{'); isNull || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "time":
			return d.float(&s.Time)
		case "node":
			return d.string(&s.Node, true)
		case "kind":
			return d.string(&s.Kind, true)
		case "used":
			return d.float(&s.Used)
		}
		return d.unknown(key, "time", "node", "kind", "used")
	})
}

// operationPtr decodes into *p, allocating an Operation for a nil one.
func (d *decoder) operationPtr(p **Operation) error {
	if isNull, err := d.begin('{'); isNull || err != nil {
		*p = nil
		return err
	}
	if *p == nil {
		*p = new(Operation)
	}
	o := *p
	return d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.string(&o.ID, false)
		case "actor":
			return d.string(&o.Actor, true)
		case "mission":
			return d.string(&o.Mission, true)
		case "start":
			return d.float(&o.Start)
		case "end":
			return d.float(&o.End)
		case "infos":
			return d.stringMap(&o.Infos)
		case "derived":
			return d.stringMap(&o.Derived)
		case "children":
			return decodeSlice(d, &o.Children, d.operationPtr)
		}
		return d.unknown(key, "id", "actor", "mission", "start", "end", "infos", "derived", "children")
	})
}

// stringMap decodes an object of strings into *m, adding to an existing
// map; a null entry stores "".
func (d *decoder) stringMap(m *map[string]string) error {
	if isNull, err := d.begin('{'); isNull || err != nil {
		*m = nil
		return err
	}
	if *m == nil {
		*m = map[string]string{}
	}
	return d.object(func(key []byte) error {
		k := d.intern(key)
		var v string
		if err := d.string(&v, false); err != nil {
			return err
		}
		(*m)[k] = v
		return nil
	})
}

// decodeArchive decodes the first JSON value in data into an Archive,
// as a json.Decoder's Decode does: what follows that value is ignored.
func decodeArchive(data []byte) (*Archive, error) {
	d := newDecoder(data)
	defer d.free()
	if d.peek() == 0 {
		return nil, d.syntax("no value")
	}
	top := d.data[d.off]
	var a Archive
	if err := d.archive(&a); err != nil {
		return nil, err
	}
	if top == 'n' && d.off < len(d.data) {
		// A top-level literal ends at a space or the end of the input.
		if c := d.data[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return nil, d.syntax("data after the top-level value")
		}
	}
	return &a, nil
}

// DecodeRecord decodes a record AppendRecord wrote — or any JSON of its
// shape — in one pass, with the result json.Unmarshal gives into a
// struct of a summary member whose type unmarshals itself, a job member
// of type *Job and a version member of type uint64 (see decoder).
// summary is handed the raw bytes of each summary member, in order, to
// decode itself. The job comes back unlinked, nil when the record has
// none, with the version (0 when absent); a job holding a null
// operation is an error.
func DecodeRecord(data []byte, summary func(raw []byte) error) (*Job, uint64, error) {
	d := newDecoder(data)
	defer d.free()
	var job *Job
	var version uint64
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		err = d.object(func(key []byte) error {
			switch string(key) {
			case "summary":
				start := d.off
				if err := d.skip(); err != nil {
					return err
				}
				return summary(d.data[start:d.off])
			case "job":
				return d.jobPtr(&job)
			case "version":
				return d.integer(func(b []byte) error {
					var err error
					version, err = strconv.ParseUint(string(b), 10, 64)
					return err
				})
			}
			return d.unknown(key, "summary", "job", "version")
		})
	case 0:
		err = d.syntax("no value")
	default:
		err = d.mismatch("object")
	}
	if d.peek(); err == nil && d.off < len(d.data) {
		err = d.syntax("data after the top-level value")
	}
	if err == nil && job != nil {
		err = job.checkNoNull()
	}
	if err != nil {
		return nil, 0, err
	}
	return job, version, nil
}
