package archive

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// readArchiveSeeds start FuzzReadArchive and FuzzPersistedJob: a valid
// archive, so the fuzzers start from the happy path, then malformed
// trees, missing versions, duplicate IDs — every one of these must
// error cleanly.
var readArchiveSeeds = []string{
	`{"version":1,"jobs":[{"id":"j1","platform":"Giraph","root":{` +
		`"id":"r","actor":"Master","mission":"Job","start":0,"end":10,"children":[` +
		`{"id":"c1","actor":"W0","mission":"Step","start":1,"end":4,"infos":{"k":"v"}},` +
		`{"id":"c2","actor":"W1","mission":"Step","start":2,"end":9}]}},` +
		`{"id":"j2","platform":"OpenG","root":{"id":"r2","actor":"M","mission":"Job",` +
		`"start":0,"end":1},"envSamples":[{"time":0.5,"node":"n1","kind":"cpu","used":0.25}]}]}`,
	`{}`,
	`{"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1}}]}`, // no version
	`{"version":99,"jobs":[]}`,
	`{"version":1,"jobs":[{"id":"j"}]}`, // no root
	`{"version":1,"jobs":[{"id":"j","root":{"id":"","mission":"M","start":0,"end":1}}]}`,  // empty op ID
	`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":5,"end":1}}]}`, // ends before start
	`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":10,"children":[` +
		`{"id":"r","mission":"M2","start":1,"end":2}]}}]}`, // duplicate IDs
	`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1,"children":[` +
		`{"id":"c","mission":"M2","start":5,"end":9}]}}]}`, // child outside parent
	`{"version":1,"jobs":[null]}`,
	`{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1,"children":[null]}}]}`,
	`[]`,
	`"version"`,
	strings.Repeat(`{"jobs":`, 50),
	"\xff\xfe\x00",
}

// FuzzReadArchive feeds Load arbitrary bytes: it must return an archive
// or an error, never panic, and anything it accepts must satisfy the
// structural invariants, save to exactly the bytes encoding/json writes
// for it, and survive a save/load round trip.
func FuzzReadArchive(f *testing.F) {
	for _, seed := range readArchiveSeeds {
		f.Add([]byte(seed))
	}

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
		"null child operation": `{"version":1,"jobs":[{"id":"j","root":{"id":"r","mission":"M","start":0,"end":1,` +
			`"children":[{"id":"c","mission":"M2","start":0,"end":1},null]}}]}`,
		"not JSON":  `this is not json`,
		"truncated": `{"version":1,"jobs":[{"id":"j","ro`,
	}
	for name, input := range cases {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted %q", name, input)
		}
	}
}

// refSummaries collects the raw bytes of every summary member, as
// DecodeRecord's summary callback sees them.
type refSummaries [][]byte

func (r *refSummaries) UnmarshalJSON(b []byte) error {
	*r = append(*r, bytes.Clone(b))
	return nil
}

// refRecord and marshalRecord are the record schema spelled for
// encoding/json, the decoder's and AppendRecord's oracle.
type refRecord struct {
	Summary refSummaries `json:"summary"`
	Job     *Job         `json:"job"`
	Version uint64       `json:"version,omitempty"`
}

type marshalRecord struct {
	Summary json.RawMessage `json:"summary"`
	Job     *Job            `json:"job"`
	Version uint64          `json:"version,omitempty"`
}

// checkDecodeAgrees fails unless whatever the one-pass decoder accepts
// in data, as an archive and as a record, encoding/json accepts too and
// decodes to a deep-equal value. It reports whether the record decoder
// accepted.
func checkDecodeAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	if got, err := decodeArchive(data); err == nil {
		var want Archive
		if werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want); werr != nil {
			t.Fatalf("decoder accepted an archive encoding/json refuses (%v): %q", werr, data)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("archive decodes differ from encoding/json on %q\n got: %+v\nwant: %+v", data, got, &want)
		}
	}
	var sums refSummaries
	job, version, err := DecodeRecord(data, func(raw []byte) error {
		sums = append(sums, bytes.Clone(raw))
		return nil
	})
	if err != nil {
		return false
	}
	var want refRecord
	if werr := json.Unmarshal(data, &want); werr != nil {
		t.Fatalf("decoder accepted a record encoding/json refuses (%v): %q", werr, data)
	}
	if !reflect.DeepEqual(job, want.Job) || version != want.Version || !reflect.DeepEqual(sums, want.Summary) {
		t.Fatalf("record decodes differ from encoding/json on %q\n got: %+v v%d %q\nwant: %+v v%d %q",
			data, job, version, sums, want.Job, want.Version, want.Summary)
	}
	return true
}

// FuzzPersistedJob holds the one-pass record codec to encoding/json.
// Any bytes: the decoder never panics, and whenever it accepts an
// archive or a record, encoding/json accepts it too with a deep-equal
// result (the decoder's one intended difference, case-sensitive member
// names, makes it refuse rather than disagree). For every archive Load
// accepts, each job's record from AppendRecord is json.Marshal's bytes,
// and decoding them deep-equals json.Unmarshal's result. For every job
// either accepts, the samples rebuilt from its EnvColumns encode to the
// bytes of the samples it was built from.
func FuzzPersistedJob(f *testing.F) {
	paper, err := os.ReadFile(filepath.Join("..", "..", "out", "archive.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(paper)
	for _, seed := range readArchiveSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		`{"summary":{"id":"j","runtime":1.5},"job":{"id":"j","platform":"P","root":{"id":"r","actor":"A",` +
			`"mission":"M","start":0,"end":1,"infos":{"k":"v"}},"envSamples":[{"time":1,"node":"n","used":0.5}]},"version":3}`,
		`{"summary":null,"job":null}`,
		`{"job":{"id":"a","platform":"p"},"job":{"id":"b"},"summary":1,"summary":{"x":[]}}`,
		`{"job":{"root":{"id":"r","children":[{"id":"a"},{"id":"b"}]}},"job":{"root":{"children":[{"end":2}]}},` +
			`"job":{"root":{"children":[{},{},{}]}}}`,
		`{"job":{"envSamples":[{"node":"n","kind":"nic"},{}]},"job":{"envSamples":[{"used":1}]},"job":{"envSamples":[{},{}]}}`,
		`{"job":{"id":"j","envSamples":[{"time":0,"node":"n","used":0},{"time":-0,"node":"n","kind":"cpu","used":-0},{"time":-0,"node":"n","used":1}]}}`,
		`{"job":{"root":{"infos":{"a":"1"},"derived":{}}},"job":{"root":{"infos":{"b":null},"children":[]}}}`,
		`{"Job":{},"VERSION":1}`,
		`{"job":{"id":"A😀\ud800x\\\"\/","platform":"\xff\xc3"},"version":18446744073709551615}`,
		`{"version":-1}`, `{"version":1.0}`, `{"job":{"root":{"start":1e400}}}`, `{"job":{"root":{"start":-0}}}`,
		` {"job" : { "id" : "j" } } `, `{"job":{}} x`, `null`, `null x`, `nullx`, `{"job":{"id":"j"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if checkDecodeAgrees(t, data) {
			if job, _, _ := DecodeRecord(data, func([]byte) error { return nil }); job != nil {
				checkEnvColumns(t, job)
			}
		}
		a, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		summary := []byte(`{"id":"s","runtime":2.5,"modelErrors":["a\u003cb"]}`) // as json.Marshal writes it
		for _, j := range a.Jobs {
			checkEnvColumns(t, j)
			for _, version := range []uint64{0, 7} {
				rec, err := AppendRecord(nil, summary, j, version)
				if err != nil {
					t.Fatalf("AppendRecord of a loaded job: %v", err)
				}
				want, err := json.Marshal(marshalRecord{Summary: summary, Job: j, Version: version})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec, want) {
					t.Fatalf("AppendRecord bytes differ from json.Marshal\n got: %q\nwant: %q", rec, want)
				}
				if !checkDecodeAgrees(t, rec) {
					t.Fatalf("decoder refused AppendRecord's bytes %q", rec)
				}
			}
		}
	})
}
