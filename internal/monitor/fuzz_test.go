package monitor

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/trace"
)

// assembleOracle is Assemble as it was before the Assembler existed,
// kept verbatim (bar its name) as the differential oracle FuzzAssemble
// runs the Assembler against. It links operations only once the whole
// log is read, so unlike the Assembler it accepts a start whose parent
// starts later in the log; that is the one difference.
func assembleOracle(jobID, platform string, records []trace.Record, samples []envmon.Sample) (*archive.Job, error) {
	type building struct {
		op      *archive.Operation
		parent  string
		started bool
		ended   bool
	}
	ops := map[string]*building{}
	var order []string

	get := func(id string) *building {
		b, ok := ops[id]
		if !ok {
			b = &building{op: &archive.Operation{ID: id}}
			ops[id] = b
			order = append(order, id)
		}
		return b
	}

	for _, r := range records {
		if r.Job != jobID {
			continue
		}
		switch r.Event {
		case trace.EventStart:
			b := get(r.Op)
			if b.started {
				return nil, fmt.Errorf("monitor: duplicate start for operation %s", r.Op)
			}
			b.started = true
			b.parent = r.Parent
			b.op.Actor = r.Actor
			b.op.Mission = r.Mission
			b.op.Start = r.Time
		case trace.EventEnd:
			b := get(r.Op)
			if !b.started {
				return nil, fmt.Errorf("monitor: end before start for operation %s", r.Op)
			}
			if b.ended {
				return nil, fmt.Errorf("monitor: duplicate end for operation %s", r.Op)
			}
			b.ended = true
			b.op.End = r.Time
		case trace.EventInfo:
			b := get(r.Op)
			if !b.started {
				return nil, fmt.Errorf("monitor: info before start for operation %s", r.Op)
			}
			if b.op.Infos == nil {
				b.op.Infos = map[string]string{}
			}
			b.op.Infos[r.Key] = r.Value
		default:
			return nil, fmt.Errorf("monitor: unknown event %q", r.Event)
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("monitor: no records for job %q", jobID)
	}

	var root *archive.Operation
	for _, id := range order {
		b := ops[id]
		if !b.started {
			return nil, fmt.Errorf("monitor: operation %s never started", id)
		}
		if !b.ended {
			return nil, fmt.Errorf("monitor: operation %s never ended", id)
		}
		if b.parent == "" {
			if root != nil {
				return nil, fmt.Errorf("monitor: multiple root operations (%s and %s)", root.ID, id)
			}
			root = b.op
			continue
		}
		pb, ok := ops[b.parent]
		if !ok {
			return nil, fmt.Errorf("monitor: operation %s references unknown parent %s", id, b.parent)
		}
		pb.op.Children = append(pb.op.Children, b.op)
	}
	if root == nil {
		return nil, fmt.Errorf("monitor: no root operation for job %q", jobID)
	}

	job := &archive.Job{ID: jobID, Platform: platform, Root: root}
	sort.SliceStable(samples, func(i, k int) bool {
		if samples[i].Time != samples[k].Time {
			return samples[i].Time < samples[k].Time
		}
		return samples[i].Node < samples[k].Node
	})
	for _, s := range samples {
		job.EnvSamples = append(job.EnvSamples, archive.EnvSample{
			Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used,
		})
	}
	return job, nil
}

// fuzzOps is the operation-ID alphabet of fuzzLog: small, so random
// logs often reuse, re-end and cross-reference operations. The empty
// ID is one of them: Assemble takes any ID a record carries.
var fuzzOps = []string{"a", "b", "c", "d", ""}

// fuzzLog decodes a fuzz input into a platform log of job "j", three
// bytes per record. Byte 0 picks the kind: 0 and 5 start, 1 end, 2
// info, 3 a start of another job, 4 an unknown event. Byte 1 picks the
// operation. Byte 2 picks a start's parent (0 none, k the k-th
// operation of the alphabet) and an info's value.
func fuzzLog(data []byte) []trace.Record {
	var recs []trace.Record
	for i := 0; i+2 < len(data); i += 3 {
		kind, arg := data[i]%6, data[i+2]
		r := trace.Record{Time: float64(i / 3), Job: "j", Op: fuzzOps[int(data[i+1])%len(fuzzOps)]}
		switch kind {
		case 0, 3, 5:
			r.Event, r.Actor, r.Mission = trace.EventStart, "A", fmt.Sprintf("M%d", arg%3)
			if p := int(arg) % (len(fuzzOps) + 1); p > 0 {
				r.Parent = fuzzOps[p-1]
			}
			if kind == 3 {
				r.Job = "other"
			}
		case 1:
			r.Event = trace.EventEnd
		case 2:
			r.Event, r.Key, r.Value = trace.EventInfo, "k", fmt.Sprint(arg)
		case 4:
			r.Event = "bogus"
		}
		recs = append(recs, r)
	}
	return recs
}

// startsBeforeParent reports whether some start of job j names a parent
// that has not started yet at that point of the log.
func startsBeforeParent(recs []trace.Record) bool {
	started := map[string]bool{}
	for _, r := range recs {
		if r.Job != "j" || r.Event != trace.EventStart {
			continue
		}
		if r.Parent != "" && !started[r.Parent] {
			return true
		}
		started[r.Op] = true
	}
	return false
}

// fuzzSamples are out of order by time and tied on time, so the sort
// in Finish is exercised.
func fuzzSamples() []envmon.Sample {
	return []envmon.Sample{
		{Time: 2, Node: "n1", Kind: "cpu", Used: 1},
		{Time: 1, Node: "n1", Kind: "cpu", Used: 2},
		{Time: 1, Node: "n0", Kind: "mem", Used: 3},
		{Time: 1, Node: "n0", Kind: "cpu", Used: 4},
	}
}

func savedBytes(t *testing.T, job *archive.Job) []byte {
	t.Helper()
	a := archive.New()
	a.Add(job)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAssemble runs the Assembler against the oracle on random
// operation logs, through Assemble (one checked record at a time) and
// through AddBatch (the whole log checked, then added). Both must
// accept exactly what the oracle accepts — except a start whose parent
// starts later in the log, which only the oracle accepts — and an
// accepted job must save to the oracle's bytes. A refused batch must
// leave the assembler empty.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 1, 7, 1, 1, 0, 5, 2, 1, 1, 2, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 3, 0, 2, 1, 1, 2, 0, 1, 1, 0, 1, 0, 0}) // b's parent c starts later
	f.Add([]byte{0, 0, 0, 0, 1, 2, 1, 1, 0, 1, 0, 0})                   // b is its own parent
	f.Add([]byte{0, 0, 0, 3, 1, 0, 1, 0, 0, 4, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzLog(data)
		want, wantErr := assembleOracle("j", "p", recs, fuzzSamples())
		got, gotErr := Assemble("j", "p", recs, fuzzSamples())

		var mine []trace.Record
		for _, r := range recs {
			if r.Job == "j" {
				mine = append(mine, r)
			}
		}
		a := NewAssembler("j")
		batchErr := a.AddBatch(mine, true)
		if (batchErr == nil) != (gotErr == nil) {
			t.Fatalf("AddBatch says %v, Assemble says %v", batchErr, gotErr)
		}
		if batchErr != nil && (a.Open() != 0 || a.root != nil || len(a.ops) != 0 || a.Ended() != 0) {
			t.Fatalf("refused batch (%v) changed the assembler", batchErr)
		}

		switch {
		case wantErr != nil && gotErr != nil:
		case wantErr != nil:
			t.Fatalf("accepted a log the oracle refuses (%v)", wantErr)
		case gotErr != nil:
			if !startsBeforeParent(recs) {
				t.Fatalf("refused a log the oracle accepts: %v", gotErr)
			}
		default:
			wantBytes := savedBytes(t, want)
			if b := savedBytes(t, got); !bytes.Equal(b, wantBytes) {
				t.Fatalf("Assemble saves\n%s\noracle saves\n%s", b, wantBytes)
			}
			var env []archive.EnvSample
			for _, s := range fuzzSamples() {
				env = append(env, archive.EnvSample{Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used})
			}
			batched, err := a.Finish("p", env)
			if err != nil {
				t.Fatal(err)
			}
			if b := savedBytes(t, batched); !bytes.Equal(b, wantBytes) {
				t.Fatalf("AddBatch saves\n%s\noracle saves\n%s", b, wantBytes)
			}
			// The ended operations come back in the order of their end
			// records.
			var ends, got []string
			for _, r := range mine {
				if r.Event == trace.EventEnd {
					ends = append(ends, r.Op)
				}
			}
			a.EachEnded(func(op *archive.Operation, _ int, _ string) { got = append(got, op.ID) })
			if a.Ended() != len(ends) || strings.Join(got, ",") != strings.Join(ends, ",") {
				t.Fatalf("ended %d ops in order %v, end records say %v", a.Ended(), got, ends)
			}
		}
	})
}
