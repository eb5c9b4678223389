package archive

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadArchive feeds Load arbitrary bytes: it must return an archive
// or an error, never panic, and anything it accepts must satisfy the
// structural invariants, save to exactly the bytes encoding/json writes
// for it, and survive a save/load round trip.
func FuzzReadArchive(f *testing.F) {
	// A valid archive, so the fuzzer starts from the happy path.
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j1","platform":"Giraph","root":{` +
		`"id":"r","actor":"Master","mission":"Job","start":0,"end":10,"children":[` +
		`{"id":"c1","actor":"W0","mission":"Step","start":1,"end":4,"infos":{"k":"v"}},` +
		`{"id":"c2","actor":"W1","mission":"Step","start":2,"end":9}]}},` +
		`{"id":"j2","platform":"OpenG","root":{"id":"r2","actor":"M","mission":"Job",` +
		`"start":0,"end":1},"envSamples":[{"time":0.5,"node":"n1","kind":"cpu","used":0.25}]}]}`))
	// Malformed trees, missing versions, duplicate IDs — every one of
	// these must error cleanly.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1}}]}`)) // no version
	f.Add([]byte(`{"version":99,"jobs":[]}`))
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j"}]}`))                                                   // no root
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j","root":{"id":"","mission":"M","start":0,"end":1}}]}`))  // empty op ID
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":5,"end":1}}]}`)) // ends before start
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":10,"children":[` +
		`{"id":"r","mission":"M2","start":1,"end":2}]}}]}`)) // duplicate IDs
	f.Add([]byte(`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1,"children":[` +
		`{"id":"c","mission":"M2","start":5,"end":9}]}}]}`)) // child outside parent
	f.Add([]byte(`{"version":1,"jobs":[null]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"version"`))
	f.Add([]byte(strings.Repeat(`{"jobs":`, 50)))
	f.Add([]byte{0xFF, 0xFE, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Load(bytes.NewReader(data))
		if err != nil {
			if a != nil {
				t.Fatalf("Load returned both an archive and an error: %v", err)
			}
			return
		}
		// Accepted input: invariants must hold, and the re-serialized
		// form must load again (shareability, requirement R2).
		for _, j := range a.Jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("Load accepted an invalid job: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded archive failed: %v", err)
		}
		if want, _ := referenceSave(a); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Save bytes differ from encoding/json\n got: %q\nwant: %q", buf.Bytes(), want)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// TestReadArchiveMalformed pins the error contract for the classic
// malformed inputs: each must produce an error, not a panic and not a
// silently accepted archive.
func TestReadArchiveMalformed(t *testing.T) {
	cases := map[string]string{
		"empty object / missing version": `{}`,
		"missing version with job":       `{"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1}}]}`,
		"wrong version":                  `{"version":2,"jobs":[]}`,
		"job without root":               `{"version":1,"jobs":[{"id":"j"}]}`,
		"operation without ID":           `{"version":1,"jobs":[{"id":"j","root":{"id":"","mission":"M","start":0,"end":1}}]}`,
		"duplicate operation IDs": `{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":10,` +
			`"children":[{"id":"r","mission":"M2","start":1,"end":2}]}}]}`,
		"child outside parent interval": `{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1,` +
			`"children":[{"id":"c","mission":"M2","start":5,"end":9}]}}]}`,
		"ends before start": `{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":5,"end":1}}]}`,
		"not JSON":          `this is not json`,
		"truncated":         `{"version":1,"jobs":[{"id":"j","ro`,
	}
	for name, input := range cases {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted %q", name, input)
		}
	}
}
