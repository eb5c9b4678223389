package archive

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// referenceSave is the encoder Save replaced, kept as its oracle:
// encoding/json's Encoder with a two-space indent.
func referenceSave(a *Archive) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(a)
	return buf.Bytes(), err
}

// checkSaveMatchesReference fails unless Save writes exactly the
// reference bytes for a, or both fail and Save writes nothing.
func checkSaveMatchesReference(t *testing.T, a *Archive) {
	t.Helper()
	want, wantErr := referenceSave(a)
	var got bytes.Buffer
	err := a.Save(&got)
	if wantErr != nil {
		if err == nil || got.Len() != 0 {
			t.Fatalf("reference fails (%v), Save: err %v after %d bytes", wantErr, err, got.Len())
		}
		return
	}
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save bytes differ from encoding/json\n got: %q\nwant: %q", got.Bytes(), want)
	}
}

// TestSaveMatchesEncodingJSON covers inputs Load cannot produce or the
// fuzzer is unlikely to reach: escapes, float formats at the cutoffs,
// nil against empty collections, nil entries, and unsupported floats.
func TestSaveMatchesEncodingJSON(t *testing.T) {
	op := func(id string, start, end float64) *Operation {
		return &Operation{ID: id, Actor: "A", Mission: "M", Start: start, End: end}
	}
	one := func(j *Job) *Archive { return &Archive{Version: 1, Jobs: []*Job{j}} }
	withRoot := func(o *Operation) *Archive { return one(&Job{ID: "j", Platform: "P", Root: o}) }
	negZero := math.Copysign(0, -1)
	strs := []string{
		"", "plain", "a<b", "a>b", "a&b", `<b>&amp;</b>`, `say "hi"`, `C:\dir`,
		"line\u2028para\u2029", "bad\xffutf8\xc3", "ctl\x00\x01\x1f\x7f",
		"\b\f\n\r\t", `quote" back\ slash/`, "héllo ✓ 𝄞",
	}
	floats := []float64{
		0, negZero, 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.99e-7, 1e20, 1e21, -1e21, 123456789012345678901,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1.5e300, 3.14159, 1e-10, 2.5e-100,
	}

	cases := map[string]*Archive{
		"nil archive":  nil,
		"nil jobs":     {Version: 1},
		"empty jobs":   {Version: 1, Jobs: []*Job{}},
		"nil job":      {Version: 1, Jobs: []*Job{nil, {ID: "j"}}},
		"nil root":     one(&Job{ID: "j", Platform: "P"}),
		"empty fields": one(&Job{Root: &Operation{}}),
		"empty collections": withRoot(&Operation{ID: "r",
			Infos: map[string]string{}, Derived: map[string]string{}, Children: []*Operation{}}),
		"nil child":   withRoot(&Operation{ID: "r", Children: []*Operation{nil, op("c", 0, 1)}}),
		"env samples": one(&Job{ID: "j", Root: op("r", 0, 1), EnvSamples: []EnvSample{{Time: 1, Node: "n", Used: 0.5}, {Node: "n", Kind: "disk", Used: 1e-9}}}),
		"empty env":   one(&Job{ID: "j", Root: op("r", 0, 1), EnvSamples: []EnvSample{}}),
		"deep": withRoot(&Operation{ID: "a", Children: []*Operation{{ID: "b", Children: []*Operation{
			{ID: "c", Infos: map[string]string{"z": "1", "a": "2", "m": "3"}, Children: []*Operation{op("d", 1, 2)}}}}}}),
	}
	for i, s := range strs {
		cases["string "+strconv.Quote(s)] = &Archive{Version: i, Jobs: []*Job{{ID: s, Platform: s,
			Root:       &Operation{ID: s, Actor: s, Mission: s, Infos: map[string]string{s: s, s + "k": ""}, Derived: map[string]string{"d" + s: s}},
			EnvSamples: []EnvSample{{Node: s, Kind: s}}}}}
	}
	for _, f := range floats {
		cases["float "+string(mustMarshal(t, f))] = one(&Job{ID: "j", Root: op("r", f, -f),
			EnvSamples: []EnvSample{{Time: f, Node: "n", Used: f / 3}}})
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) { checkSaveMatchesReference(t, a) })
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []*Archive{
			withRoot(op("r", bad, 1)),
			withRoot(op("r", 0, bad)),
			withRoot(&Operation{ID: "r", Children: []*Operation{op("c", 0, bad)}}),
			one(&Job{ID: "j", Root: op("r", 0, 1), EnvSamples: []EnvSample{{Time: bad}}}),
			one(&Job{ID: "j", Root: op("r", 0, 1), EnvSamples: []EnvSample{{Used: bad}}}),
		} {
			if _, err := referenceSave(a); err == nil {
				t.Fatalf("reference accepted %v", bad)
			}
			var got bytes.Buffer
			if err := a.Save(&got); err == nil || got.Len() != 0 {
				t.Fatalf("Save of %v: err %v after %d bytes, want an error and nothing written", bad, err, got.Len())
			}
		}
	}
}

// TestAppendStringMatchesEncodingJSON holds AppendString to
// json.Marshal on every single byte, every rune class it escapes, and
// seeded random byte strings drawn mostly from the bytes and runes
// where the two rules could part: control bytes, quotes, HTML's <>&,
// DEL, U+2028/2029, truncated and overlong UTF-8, and plain text.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := AppendString([]byte("x"), s), append([]byte("x"), mustMarshal(t, s)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %q, want %q", s, got, want)
		}
	}
	for b := range 256 {
		check(string([]byte{byte(b)}))
		check("a" + string([]byte{byte(b)}) + "z")
	}
	pieces := []string{"", "a", "plain text", "\x00", "\x1f", "\x7f", "\b\f\n\r\t", `"`, `\`, "<", ">", "&", "/",
		"\u2028", "\u2029", "\u2027", "é", "✓", "𝄞", "\xff", "\xc3", "\xe2\x80", "\xf0\x9d\x84", "\xc0\xaf", "\xed\xa0\x80", "\ufffd"}
	rng := rand.New(rand.NewSource(7))
	for range 20_000 {
		var sb strings.Builder
		for range rng.Intn(8) {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		check(sb.String())
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ReferenceSave exports the oracle to the external tests.
var ReferenceSave = referenceSave
