package service

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// operationView is the flat JSON projection of one operation: the type
// /query's row answer was rendered from by reflection before writeRows,
// kept as the oracle's input and as the tests' decoding type.
type operationView struct {
	ID       string            `json:"id"`
	Actor    string            `json:"actor"`
	Mission  string            `json:"mission"`
	Path     string            `json:"path"`
	Start    float64           `json:"start"`
	End      float64           `json:"end"`
	Duration float64           `json:"duration"`
	Infos    map[string]string `json:"infos,omitempty"`
	Derived  map[string]string `json:"derived,omitempty"`
}

// queryResponse carries the operations matched by a query. The live
// fields are set only for queries answered from a still-streaming job.
type queryResponse struct {
	JobID      string          `json:"jobId"`
	Count      int             `json:"count"`
	Operations []operationView `json:"operations"`
	Live       bool            `json:"live,omitempty"`
	LastSeq    uint64          `json:"lastSeq,omitempty"`
}

// kvMap returns kv's entries as a map, nil when it has none, as the
// frame's map builders did.
func kvMap(kv query.KV) map[string]string {
	if kv.Len() == 0 {
		return nil
	}
	m := make(map[string]string, kv.Len())
	for i := range kv.Len() {
		k, v := kv.At(i)
		m[k] = v
	}
	return m
}

// viewRows renders the given rows of f as views.
func viewRows(f *query.Frame, rows []int) []operationView {
	out := make([]operationView, 0, len(rows))
	for _, r := range rows {
		infos, derived := f.RowKV(r)
		out = append(out, operationView{
			ID: f.Syms[f.ID[r]], Actor: f.Syms[f.Actor[r]], Mission: f.Syms[f.Mission[r]],
			Path: f.Paths[f.Path[r]], Start: f.Start[r], End: f.End[r], Duration: f.Dur[r],
			Infos: kvMap(infos), Derived: kvMap(derived),
		})
	}
	return out
}

// oracleRows is the row answer as writeRows replaced it: views through
// writeJSON's indenting Encoder.
func oracleRows(w http.ResponseWriter, id string, f *query.Frame, rows []int, live bool, lastSeq uint64) {
	writeJSON(w, http.StatusOK, queryResponse{JobID: id, Count: len(rows), Operations: viewRows(f, rows), Live: live, LastSeq: lastSeq})
}

// checkRows fails unless writeRows and the oracle answer with the same
// status, headers and body bytes; it returns the body.
func checkRows(t testing.TB, id string, f *query.Frame, rows []int, live bool, lastSeq uint64) []byte {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeRows(got, id, f, rows, live, lastSeq)
	oracleRows(want, id, f, rows, live, lastSeq)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("job %q rows %v live %v lastSeq %d:\n got %d %v %q\nwant %d %v %q",
			id, rows, live, lastSeq, got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
	}
	return got.Body.Bytes()
}

// rowQueries are the ?q= row queries the differential asks every job:
// plain, ordered both ways on each column kind, limited, and empty.
var rowQueries = []string{
	`depth >= 0`,
	`mission = "Superstep" order by start`,
	`depth <= 2 order by duration desc`,
	`start > 0 order by actor limit 7`,
	`depth >= 1 order by mission desc limit 3`,
	`depth >= 0 order by info.Bytes`,
	`depth >= 0 limit 0`,
	`mission = "no such mission"`,
}

// checkServed fails unless the server's answer to /jobs/{id}/query?sel
// has the oracle's body over the same rows of f, and the writer agrees
// with the oracle on those rows, headers included.
func checkServed(t *testing.T, base, id string, f *query.Frame, rows []int, sel string, live bool, lastSeq uint64) {
	t.Helper()
	want := checkRows(t, id, f, rows, live, lastSeq)
	resp, err := http.Get(base + "/jobs/" + url.PathEscape(id) + "/query?" + sel)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	// The validator strips the live marker and tags only sealed
	// answers.
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
		(resp.Header.Get("ETag") == "") != live || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s ?%s: %d %v\n got %q\nwant %q", id, sel, resp.StatusCode, resp.Header, got.Bytes(), want)
	}
}

// checkJobQueries asks cols every row query and every mission, actor
// and path lookup, through the server and against the oracle.
func checkJobQueries(t *testing.T, base, id string, cols *query.Columns, live bool, lastSeq uint64) {
	t.Helper()
	f := cols.Frame(query.JobMeta{})
	for _, raw := range rowQueries {
		q, err := query.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkServed(t, base, id, f, q.SelectColumns(cols), "q="+url.QueryEscape(raw), live, lastSeq)
	}
	keys := map[[2]string]bool{{"mission", "absent"}: true}
	for r := range f.Depth {
		keys[[2]string{"mission", f.Syms[f.Mission[r]]}] = true
		keys[[2]string{"actor", f.Syms[f.Actor[r]]}] = true
		keys[[2]string{"path", f.Paths[f.Path[r]]}] = true
	}
	for k := range keys {
		rows := query.Exact(k[0], k[1]).SelectColumns(cols)
		checkServed(t, base, id, f, rows, k[0]+"="+url.QueryEscape(k[1]), live, lastSeq)
	}
}

// hostileStrings are strings whose encoding/json form is not the
// string between quotes.
var hostileStrings = []string{
	"", "plain", "a<b>&c", `say "hi"`, `C:\dir\`, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"line\u2028para\u2029", "héllo ✓ 𝄞", "bad\xffutf8\xc3", "\xed\xa0\x80", "<script>&amp;</script>",
}

// hostileFloats are finite floats at encoding/json's format edges.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 5e-324, 0.1, 1.5, 1e20, 1e21, -1e21,
	123456789012345678901, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2,
}

// hostileJob builds a job whose ids, actors, missions, paths, info keys
// and values are hostileStrings and whose times are hostileFloats, with
// every duration finite, so each of its answers has a body.
func hostileJob(id string) *archive.Job {
	root := &archive.Operation{ID: "root", Actor: "A", Mission: "Job", Start: -math.MaxFloat64 / 2, End: math.MaxFloat64 / 2}
	for i, s := range hostileStrings {
		start := hostileFloats[i%len(hostileFloats)]
		end := hostileFloats[(i*7+3)%len(hostileFloats)]
		op := &archive.Operation{ID: s + "#", Actor: s, Mission: s, Start: start, End: end}
		if i%3 != 2 {
			op.Infos = map[string]string{s: s, s + "k": "", "z" + s: "v<&>"}
		}
		if i%2 == 0 {
			op.Derived = map[string]string{"d" + s: s, "Duration": "1e21"}
		}
		child := &archive.Operation{ID: "c" + s, Actor: "w", Mission: s + "/x", Start: end, End: start}
		op.Children = []*archive.Operation{child}
		root.Children = append(root.Children, op)
	}
	return &archive.Job{ID: id, Platform: "P", Root: root}
}

// liveEvents runs a real job and returns its records as /ingest
// events, unsealed.
func liveEvents(t *testing.T, platform, algorithm, id string) []stream.Event {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{Kind: datagen.SocialNetwork, Vertices: 300, Edges: 900, Seed: 42, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	var events []stream.Event
	_, err = platforms.Run(platforms.Spec{
		Platform: platform, Algorithm: algorithm, Dataset: ds, JobID: id, Iterations: 5,
		Source: datagen.PeripheralSource(ds.Graph), HostParallelism: 1,
		RecordSink: func(r trace.Record) {
			events = append(events, stream.Event{Seq: uint64(len(events) + 1), Type: string(r.Event), Time: r.Time,
				Op: r.Op, Parent: r.Parent, Actor: r.Actor, Mission: r.Mission, Key: r.Key, Value: r.Value})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestQueryAnswerMatchesEncodingJSON is the differential of the row
// answer writer: against views through encoding/json, it must give the
// same status, headers and body bytes for every platform and algorithm
// the harness accepts (every row query and every lookup, served),
// a real job mid-stream (live, with its lastSeq), and hand-built frames
// with hostile strings and floats, including a duration that overflows
// to +Inf, where both write a 200 with no body.
func TestQueryAnswerMatchesEncodingJSON(t *testing.T) {
	store := tempStore(t)
	metrics := NewMetrics()
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})

	t.Run("platforms", func(t *testing.T) {
		for platform, algorithms := range map[string][]string{
			"Giraph":     {"BFS", "SSSP", "PageRank", "WCC", "CDLP"},
			"PowerGraph": {"BFS", "SSSP", "PageRank", "WCC"},
			"OpenG":      {"BFS", "SSSP", "PageRank", "WCC", "CDLP", "LCC"},
		} {
			for _, algorithm := range algorithms {
				out := testOutput(t, platform, algorithm)
				out.Job.ID = platform + "-" + algorithm
				store.Put(out.Job, summarize(JobRequest{Algorithm: algorithm}, out))
				sj, _ := store.get(out.Job.ID)
				checkJobQueries(t, ts.URL, out.Job.ID, sj.Cols, false, 0)
			}
		}
	})

	t.Run("live mid-stream", func(t *testing.T) {
		events := liveEvents(t, "Giraph", "PageRank", "live-pr")
		half := events[:len(events)/2]
		if code, _, body, _ := postIngest(t, ts.URL, "live-pr", half); code != http.StatusOK {
			t.Fatalf("ingest: %d: %s", code, body)
		}
		lj, ok := srv.streams.Get("live-pr")
		if !ok {
			t.Fatal("live-pr is not streaming")
		}
		cols := lj.Columns()
		if n := len(cols.Frame(query.JobMeta{}).Depth); n < 10 {
			t.Fatalf("only %d operations completed mid-stream", n)
		}
		checkJobQueries(t, ts.URL, "live-pr", cols, true, uint64(len(half)))
	})

	t.Run("hostile frames", func(t *testing.T) {
		for _, id := range hostileStrings {
			cols := query.BuildColumns(hostileJob(id))
			f := cols.Frame(query.JobMeta{})
			all := make([]int, len(f.Depth))
			for r := range all {
				all[r] = r
			}
			for _, rows := range [][]int{all, nil, {}, all[1:2], {len(all) - 1, 0, 3, 3}} {
				for _, live := range []bool{false, true} {
					for _, lastSeq := range []uint64{0, 1, math.MaxUint64} {
						if body := checkRows(t, id, f, rows, live, lastSeq); len(body) == 0 {
							t.Fatalf("job %q rows %v: empty answer", id, rows)
						}
					}
				}
			}
		}
		hostile := hostileJob("hostile")
		store.Put(hostile, Summary{ID: "hostile"})
		sj, _ := store.get("hostile")
		checkJobQueries(t, ts.URL, "hostile", sj.Cols, false, 0)
	})

	t.Run("overflowing duration", func(t *testing.T) {
		job := &archive.Job{ID: "inf", Platform: "P", Root: &archive.Operation{
			ID: "r", Actor: "A", Mission: "Job", Start: -math.MaxFloat64, End: math.MaxFloat64,
			Children: []*archive.Operation{{ID: "c", Actor: "A", Mission: "Step", Start: 0, End: 1}},
		}}
		store.Put(job, Summary{ID: "inf"})
		sj, _ := store.get("inf")
		f := sj.Cols.Frame(query.JobMeta{})
		if !math.IsInf(f.Dur[0], 1) {
			t.Fatalf("root duration %v, want +Inf", f.Dur[0])
		}
		if body := checkRows(t, "inf", f, []int{0, 1}, false, 0); len(body) != 0 {
			t.Fatalf("answer with a +Inf duration has a %d-byte body, want none", len(body))
		}
		if body := checkRows(t, "inf", f, []int{1}, false, 0); len(body) == 0 {
			t.Fatal("answer without the +Inf row is empty")
		}
		checkJobQueries(t, ts.URL, "inf", sj.Cols, false, 0)
	})
}

// FuzzQueryAnswer holds the row answer writer to the encoding/json
// oracle on a two-level job built from arbitrary strings and float bit
// patterns: the ids, actors, missions (so paths), an info key and
// value, start and end times, and the live fields.
func FuzzQueryAnswer(f *testing.F) {
	for i, s := range hostileStrings {
		x := hostileFloats[i%len(hostileFloats)]
		f.Add(s, s+"a", "<&>", s, "\u2028", math.Float64bits(x), math.Float64bits(-x), i%2 == 0, uint64(i))
	}
	f.Add("r", "A", "M", "k", "v", math.Float64bits(-math.MaxFloat64), math.Float64bits(math.MaxFloat64), false, uint64(0))
	f.Fuzz(func(t *testing.T, id, actor, mission, key, value string, startBits, endBits uint64, live bool, lastSeq uint64) {
		start, end := math.Float64frombits(startBits), math.Float64frombits(endBits)
		job := &archive.Job{ID: id, Root: &archive.Operation{
			ID: id, Actor: actor, Mission: mission, Start: start, End: end,
			Infos: map[string]string{key: value},
			Children: []*archive.Operation{
				{ID: value, Actor: key, Mission: actor, Start: end, End: start, Derived: map[string]string{value: key, mission: id}},
			},
		}}
		cols := query.BuildColumns(job)
		fr := cols.Frame(query.JobMeta{})
		checkRows(t, id, fr, []int{0, 1}, live, lastSeq)
		checkRows(t, id, fr, []int{1}, live, lastSeq)
		checkRows(t, id, fr, nil, live, lastSeq)
	})
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestQueryAnswerAllocs is the row answer writer's allocation gate:
// answering a query allocates the same small number of times whatever
// the row count (setting Content-Type allocates its one-value slice),
// where the views allocated a view and two maps per row. The frames
// are a real job's, with infos and derived on most rows.
func TestQueryAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	out := testOutput(t, "Giraph", "PageRank")
	cols := query.BuildColumns(out.Job)
	f := cols.Frame(query.JobMeta{})
	n := len(f.Depth)
	if n < 200 {
		t.Fatalf("job has %d operations, want at least 200", n)
	}
	w := discardWriter{h: http.Header{}}
	var counts []float64
	for _, rows := range []int{1, 20, n} {
		sel := make([]int, rows)
		for i := range sel {
			sel[i] = i * n / rows
		}
		allocs := testing.AllocsPerRun(100, func() { writeRows(w, out.Job.ID, f, sel, true, 42) })
		t.Logf("%d rows: %v allocs per answer", rows, allocs)
		counts = append(counts, allocs)
	}
	for _, c := range counts {
		if c != counts[0] || c > 1 {
			t.Fatalf("allocs per answer at 1, 20 and %d rows: %v; want the same count, at most 1", n, counts)
		}
	}
	if !strings.Contains(string(checkRows(t, out.Job.ID, f, []int{0, n - 1}, false, 0)), `"infos": {`) {
		t.Fatal("gate's rows carry no infos")
	}
}
