package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/platforms"
)

// fig5Kinds is the op mix of fig5-pipeline: the paper's Figure 5 jobs
// plus OpenG and a PageRank.
var fig5Kinds = [][2]string{{"Giraph", "BFS"}, {"PowerGraph", "BFS"}, {"OpenG", "BFS"}, {"Giraph", "PageRank"}}

type fig5State struct {
	cfgs     []datagen.Config
	datasets []*datagen.Dataset
}

// spec returns op i's job: kinds rotate fastest, then the two datasets;
// the seed picks where the rotation starts. Every run therefore draws
// from the same eight distinct jobs, in a seed-dependent order.
func (s *fig5State) spec(seed int64, i int) (platforms.Spec, int) {
	i += int(seed % 8)
	k, d := i%len(fig5Kinds), (i/len(fig5Kinds))%len(s.datasets)
	ds := s.datasets[d]
	spec := specFor(fmt.Sprintf("fig5-%s-%s-%d", fig5Kinds[k][0], fig5Kinds[k][1], d), fig5Kinds[k][0], fig5Kinds[k][1], 0, ds)
	return spec, k*len(s.datasets) + d
}

func runFig5(e *env) error {
	st := &fig5State{}
	for d := int64(0); d < 2; d++ {
		cfg := datagen.DG1000Shaped(d + 1)
		cfg.Vertices, cfg.Edges = int64(e.scaled(int(cfg.Vertices))), int64(e.scaled(int(cfg.Edges)))
		ds, err := datagen.Generate(cfg)
		if err != nil {
			return err
		}
		st.cfgs, st.datasets = append(st.cfgs, cfg), append(st.datasets, ds)
	}

	// first keeps, per distinct job, its first run: the checksum every
	// repeat must match, and the output the oracles check afterwards.
	type firstRun struct {
		spec platforms.Spec
		out  *platforms.Output
		sum  uint32
	}
	first := make([]*firstRun, len(fig5Kinds)*len(st.datasets))

	// op runs the cmd/granula pipeline for one job: harness, archive,
	// visual reports, choke-point analysis.
	op := func(tr *Tracer, smp *samples, i int) {
		spec, slot := st.spec(e.seed, i)
		kind := spec.Platform + "-" + spec.Algorithm
		root := tr.Start("bench.job", 0, i)
		defer tr.End(root)
		start := time.Now()

		sp := tr.Start("platforms.run", root, i)
		out, err := platforms.RunContext(context.Background(), spec)
		tr.End(sp)
		if err != nil {
			e.opFailed(err)
			return
		}
		var buf bytes.Buffer
		a := archive.New()
		a.Add(out.Job)
		sp = tr.Start("archive.save", root, i)
		err = a.Save(&buf)
		tr.End(sp)
		if err == nil {
			sp = tr.Start("viz.render", root, i)
			err = renderReport(out.Job)
			tr.End(sp)
		}
		if err == nil {
			sp = tr.Start("chokepoint.analyze", root, i)
			err = analyzeChokepoints(out.Job, spec)
			tr.End(sp)
		}
		if err != nil {
			e.opFailed(err)
			return
		}
		smp.add(0, kind, time.Since(start))

		sum := crc32.ChecksumIEEE(buf.Bytes())
		if first[slot] == nil {
			first[slot] = &firstRun{spec: spec, out: out, sum: sum}
		} else if first[slot].sum != sum {
			e.opFailed(fmt.Errorf("%s: archive bytes changed between identical runs", spec.JobID))
		}
	}

	// A whole run is 15 rounds of the eight distinct jobs at --seconds
	// 10. The sample floor sets this count, not the reference box's
	// rate: job_ms_p50 is made of one median per kind, each needs 30
	// samples, and at 5.5 jobs/s the 120 ops take 22 s.
	next := 0
	run := func(tr *Tracer, frac float64) (*samples, int, loopTime) {
		smp := newSamples(1)
		n := len(fig5Kinds) * len(st.datasets) * e.ops(1.5, frac)
		took := closedLoop(1, n, next, func(_, i int) { op(tr, smp, i) })
		next += n
		return smp, n, took
	}
	run(nil, warmUp) // discarded
	e.measuringFrom()

	var lat []float64
	for _, p := range e.passes() {
		smp, n, took := run(p.tr, p.frac)
		e.attempted(n)
		lat = append(lat, kindBalancedMedian(smp.byKind()))
		if e.trace {
			continue
		}
		e.set("job_ms_p50", lat[0])
		e.set("op_ms_p50", lat[0])
		e.set("jobs_per_s", took.perSecond())
		e.set("live_heap_mb", liveHeapMB())
	}

	if e.trace {
		var inputs []layerInput
		for k := range fig5Kinds {
			spec, _ := st.spec(0, k)
			inputs = append(inputs, layerInput{dsCfg: st.cfgs[0], ds: st.datasets[0], spec: spec})
		}
		// No server: every serving layer is idle and its counters read 0.
		if err := e.reportTrace(lat, counterInputs{}, inputs); err != nil {
			return err
		}
	}

	// Oracles, once per distinct job.
	for _, f := range first {
		if f != nil {
			if err := checkOutput(f.spec, f.out); err != nil {
				e.incorrect("%v", err)
			}
		}
	}
	return nil
}
