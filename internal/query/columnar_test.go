package query

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/archive"
)

// oracleQueries exercises every field kind, operator, combinator, and
// ordering the language supports, including the adversarial cases:
// numeric-looking strings, NaN/Inf values, substring matches on numeric
// fields, and order-by over absent info keys.
var oracleQueries = []string{
	``,
	`limit 3`,
	`order by start`,
	`order by duration desc`,
	`order by actor`,
	`order by actor desc limit 4`,
	`order by info.Vertices desc`,
	`order by info.Nope`,
	`order by depth desc limit 7`,
	`mission = Compute`,
	`mission != Compute`,
	`mission ~ o`,
	`mission > Compute`,
	`mission <= LocalLoad`,
	`mission = 123`,
	`mission >= 123`,
	`actor = Worker-1`,
	`actor ~ Worker`,
	`actor != Master`,
	`id = b1`,
	`id ~ 1`,
	`depth = 2`,
	`depth >= 1`,
	`depth < 2`,
	`depth != 1`,
	`depth ~ 1`,
	`duration > 1.5`,
	`duration >= 4`,
	`duration < 2`,
	`duration <= 0`,
	`duration = 4`,
	`duration != 4`,
	`duration ~ 5`,
	`start >= 8`,
	`end < 12`,
	`info.Vertices >= 1000`,
	`info.Vertices < 1000`,
	`info.Bytes = 1000`,
	`info.Bytes ~ 00`,
	`info.Nope = 1`,
	`not info.Nope = 1`,
	`info.Weird > 10`,
	`info.Weird <= 10`,
	`derived.PercentOfJob > 10`,
	`mission = Compute and duration > 1`,
	`mission = Compute or mission = Cleanup`,
	`not mission = Compute`,
	`(mission = Compute or actor = Client) and depth > 0`,
	`not (duration > 2 and actor ~ Worker)`,
	`mission ~ o and depth > 0 order by duration desc limit 3`,
	`actor ~ Worker order by info.Vertices desc limit 2`,
	`duration > 0 order by end desc`,
	`mission != Job order by mission`,
	`order by id desc`,
}

// weirdJob stresses the typed fast paths: missions that parse as
// numbers, NaN and Inf info values, zero-duration operations, deep
// chains, and duplicate IDs across actors.
func weirdJob() *archive.Job {
	root := &archive.Operation{
		ID: "r", Mission: "123", Actor: "9", Start: 0, End: 50,
		Infos: map[string]string{"Weird": "NaN", "Bytes": "1e3"},
	}
	cur := root
	for i := 0; i < 5; i++ {
		child := &archive.Operation{
			ID:      fmt.Sprintf("chain-%d", i),
			Mission: []string{"123", "124", "Compute", "+Inf", "00123"}[i],
			Actor:   fmt.Sprintf("Worker-%d", i%2),
			Start:   float64(i), End: float64(i) + 0.5,
			Infos: map[string]string{"Vertices": strconv.Itoa(i * 100), "Weird": "Inf"},
		}
		cur.Children = append(cur.Children, child)
		cur = child
	}
	return &archive.Job{ID: "weird", Root: root}
}

// randomJob builds a random operation tree: rng-driven shape, missions
// and actors drawn from pools that include numeric-looking strings.
func randomJob(rng *rand.Rand, nOps int) *archive.Job {
	missions := []string{"Job", "LoadGraph", "Compute", "Superstep", "42", "0042", "Cleanup"}
	actors := []string{"Master", "Client", "Worker-0", "Worker-1", "Worker-2", "7"}
	root := &archive.Operation{ID: "op-0", Mission: "Job", Actor: "Client", Start: 0, End: 1000}
	all := []*archive.Operation{root}
	for i := 1; i < nOps; i++ {
		parent := all[rng.Intn(len(all))]
		start := parent.Start + rng.Float64()*10
		op := &archive.Operation{
			ID:      fmt.Sprintf("op-%d", i),
			Mission: missions[rng.Intn(len(missions))],
			Actor:   actors[rng.Intn(len(actors))],
			Start:   start,
			End:     start + rng.Float64()*20,
		}
		if rng.Intn(3) == 0 {
			op.Infos = map[string]string{"Vertices": strconv.Itoa(rng.Intn(5000))}
		}
		if rng.Intn(5) == 0 {
			op.SetDerived("PercentOfJob", strconv.FormatFloat(rng.Float64()*100, 'f', 3, 64))
		}
		parent.Children = append(parent.Children, op)
		all = append(all, op)
	}
	return &archive.Job{ID: "rand", Root: root}
}

func assertSameOps(t *testing.T, qs string, tree, col []*archive.Operation) {
	t.Helper()
	if len(tree) != len(col) {
		t.Fatalf("query %q: tree returned %d ops, columnar %d", qs, len(tree), len(col))
	}
	for i := range tree {
		if tree[i] != col[i] {
			t.Fatalf("query %q: row %d differs: tree %q, columnar %q", qs, i, tree[i].ID, col[i].ID)
		}
	}
}

// TestSelectColumnarOracle asserts SelectColumns returns pointer-
// identical results, in identical order, to the tree-walking Select on
// every oracle query over the standard, weird, and random jobs.
func TestSelectColumnarOracle(t *testing.T) {
	jobs := []*archive.Job{testJob(), weirdJob(), {ID: "empty"}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		jobs = append(jobs, randomJob(rng, 50+rng.Intn(200)))
	}
	for ji, job := range jobs {
		cols := BuildColumns(job)
		if job.Root != nil {
			n := 0
			job.Root.Walk(func(*archive.Operation) { n++ })
			if cols.rows() != n {
				t.Fatalf("job %d: columns have %d rows, tree has %d ops", ji, cols.rows(), n)
			}
		}
		for _, qs := range oracleQueries {
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			assertSameOps(t, qs, q.Select(job), q.SelectColumns(cols))
		}
	}
}

// TestSelectColumnarRandomQueries fuzzes predicate combinations against
// the oracle over a larger random job.
func TestSelectColumnarRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	job := randomJob(rng, 400)
	archive.New().Add(job) // parent links, which the tree side of a path match reads
	cols := BuildColumns(job)
	fields := []string{"mission", "actor", "id", "depth", "duration", "start", "end", "info.Vertices", "derived.PercentOfJob"}
	ops := []string{"=", "!=", "~", ">", ">=", "<", "<="}
	values := []string{"Compute", "42", "Worker-1", "0", "3", "10.5", "op-17", "2", "NaN", "1e2"}
	orders := []string{"", " order by duration desc", " order by mission", " order by info.Vertices", " order by id desc limit 9"}
	for i := 0; i < 300; i++ {
		qs := fmt.Sprintf("%s %s %s", fields[rng.Intn(len(fields))], ops[rng.Intn(len(ops))], values[rng.Intn(len(values))])
		if rng.Intn(2) == 0 {
			qs = fmt.Sprintf("%s and %s %s %s", qs, fields[rng.Intn(len(fields))], ops[rng.Intn(len(ops))], values[rng.Intn(len(values))])
		}
		if rng.Intn(3) == 0 {
			qs = "not (" + qs + ")"
		}
		qs += orders[rng.Intn(len(orders))]
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		assertSameOps(t, qs, q.Select(job), q.SelectColumns(cols))
	}

	// Exact lookups (the service's ?mission=/?actor=/?path=): every key
	// the job holds, plus absent ones and a field with no exact form.
	keys := map[[2]string]bool{
		{"mission", "nope"}: true, {"actor", ""}: true, {"path", "Job/nope"}: true,
		{"path", "Job/Compute/"}: true, {"id", "op-1"}: true,
	}
	for _, od := range flattenDFS(job) {
		keys[[2]string{"mission", od.op.Mission}] = true
		keys[[2]string{"actor", od.op.Actor}] = true
		keys[[2]string{"path", od.path}] = true
	}
	for k := range keys {
		q := Exact(k[0], k[1])
		if k[0] == "id" {
			// Not an exact-match field: the tree matches nothing and the
			// frame compiler refuses, rather than answering differently.
			if _, err := compileFrameExpr(q.where, &cols.f); err == nil || len(q.Select(job)) != 0 {
				t.Fatalf("exact %v: want a compile error and an empty tree result", k)
			}
			continue
		}
		assertSameOps(t, fmt.Sprint("exact ", k), q.Select(job), q.SelectColumns(cols))
	}
	// Exact means string identity: "42" and "0042" are equal to the =
	// operator (both parse as 42) and distinct here.
	eq, _ := Parse(`mission = 42`)
	n42, n0042, nEq := len(Exact("mission", "42").SelectColumns(cols)),
		len(Exact("mission", "0042").SelectColumns(cols)), len(eq.SelectColumns(cols))
	if n42 == 0 || n0042 == 0 || n42+n0042 != nEq {
		t.Fatalf("exact 42: %d, exact 0042: %d, = 42: %d; want two non-empty halves of the = result", n42, n0042, nEq)
	}
}

// --- allocation gates (the perf-correctness contract) ---

// TestColumnarEvalAllocs pins the columnar evaluation hot path at zero
// allocations per evaluated operation: evaluating a compiled typed
// predicate over every row of a Figure-5-scale archive must not
// allocate at all.
func TestColumnarEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	cols := BuildColumns(figureScaleJob(32, 24))
	for _, qs := range []string{
		`mission = Superstep and duration > 0.5`,
		`actor ~ Worker-1 or depth = 2`,
		`not mission = Compute and start >= 10`,
		`info.Vertices >= 1000`,
	} {
		q, err := Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := compileFrameExpr(q.where, &cols.f)
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		allocs := testing.AllocsPerRun(20, func() {
			for r := 0; r < cols.rows(); r++ {
				if ev(r) {
					matched++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("query %q: %.1f allocs per full-column evaluation, want 0", qs, allocs)
		}
		if matched == 0 {
			t.Fatalf("query %q matched nothing; the gate measured an empty loop", qs)
		}
	}
}

// figureScaleJob synthesizes an archive shaped like the paper's Figure 5
// subject: one job, W workers, S supersteps, with per-worker compute and
// communicate operations under each superstep.
func figureScaleJob(workers, supersteps int) *archive.Job {
	root := &archive.Operation{ID: "job", Mission: "Job", Actor: "Client", Start: 0, End: float64(supersteps * 2)}
	load := &archive.Operation{ID: "load", Mission: "LoadGraph", Actor: "Master", Start: 0, End: 1}
	root.Children = append(root.Children, load)
	for w := 0; w < workers; w++ {
		load.Children = append(load.Children, &archive.Operation{
			ID: fmt.Sprintf("load-%d", w), Mission: "LocalLoad",
			Actor: fmt.Sprintf("Worker-%d", w), Start: 0, End: 0.5 + float64(w%7)/13,
		})
	}
	proc := &archive.Operation{ID: "proc", Mission: "ProcessGraph", Actor: "Master", Start: 1, End: float64(supersteps*2) - 1}
	root.Children = append(root.Children, proc)
	for s := 0; s < supersteps; s++ {
		ss := &archive.Operation{
			ID: fmt.Sprintf("ss-%d", s), Mission: "Superstep", Actor: "Master",
			Start: float64(1 + s*2), End: float64(3 + s*2),
		}
		proc.Children = append(proc.Children, ss)
		for w := 0; w < workers; w++ {
			start := ss.Start
			ss.Children = append(ss.Children,
				&archive.Operation{
					ID: fmt.Sprintf("c-%d-%d", s, w), Mission: "Compute",
					Actor: fmt.Sprintf("Worker-%d", w), Start: start, End: start + 0.3 + float64((s+w)%11)/10,
					Infos: map[string]string{"Vertices": strconv.Itoa(500 + 37*w)},
				},
				&archive.Operation{
					ID: fmt.Sprintf("m-%d-%d", s, w), Mission: "Communicate",
					Actor: fmt.Sprintf("Worker-%d", w), Start: start + 1, End: start + 1.2 + float64((s*w)%5)/10,
				})
		}
	}
	return &archive.Job{ID: "fig5", Root: root}
}
