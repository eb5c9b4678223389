package core_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/viz"
)

// sortMergeJob is a toy platform this repository ships no model for:
// every node sorts a local partition, then one node merges the results.
// It emits Granula operation logs like the platforms in internal/pregel
// and internal/gas, and keeps the domain-level mission names so domain
// metrics work across platforms.
func sortMergeJob(p *sim.Proc, c *cluster.Cluster, em *trace.Emitter) {
	root := em.Start(trace.Root, "SortClient", "SortJob")

	setup := em.Start(root, "SortClient", "Startup")
	p.Sleep(0.5) // deployment latency
	em.End(setup)

	// perNode runs one child operation per node in parallel under parent.
	perNode := func(parent trace.OpRef, mission string, work func(*sim.Proc, int, *cluster.Node)) {
		done := make([]*sim.Event, c.Size())
		for i, node := range c.Nodes() {
			ev := sim.NewEvent(p.Engine())
			done[i] = ev
			p.Engine().Spawn(fmt.Sprintf("%s-%d", mission, i), func(wp *sim.Proc) {
				op := em.Start(parent, fmt.Sprintf("SortWorker-%d", i), mission)
				work(wp, i, node)
				em.End(op)
				ev.Fire()
			})
		}
		for _, ev := range done {
			ev.Wait(p)
		}
	}

	load := em.Start(root, "SortMaster", "LoadGraph")
	perNode(load, "LocalLoad", func(wp *sim.Proc, _ int, n *cluster.Node) { n.ReadLocal(wp, 100e6) })
	em.End(load)

	process := em.Start(root, "SortMaster", "ProcessGraph")
	perNode(process, "LocalSort", func(wp *sim.Proc, i int, n *cluster.Node) {
		n.ExecParallel(wp, 12+float64(i), 4) // deliberately imbalanced
	})
	merge := em.Start(process, "SortWorker-0", "Merge")
	c.Node(0).Exec(p, 5)
	em.End(merge)
	em.End(process)

	offload := em.Start(root, "SortMaster", "OffloadGraph")
	c.Node(0).WriteLocal(p, 50e6)
	em.End(offload)

	cleanup := em.Start(root, "SortClient", "Cleanup")
	p.Sleep(0.2)
	em.End(cleanup)

	em.End(root)
}

// The two iterations of the SortMerge model, as an analyst would keep
// them in JSON files: levels are 1 (domain), 2 (system) and 3
// (implementation).
const coarseModel = `{"version": 1, "platform": "SortMerge",
 "description": "Iteration 1: domain level only.",
 "root": {"mission": "SortJob", "actorType": "SortClient", "level": 1, "children": [
  {"mission": "Startup", "actorType": "SortClient", "level": 1},
  {"mission": "LoadGraph", "actorType": "SortMaster", "level": 1},
  {"mission": "ProcessGraph", "actorType": "SortMaster", "level": 1},
  {"mission": "OffloadGraph", "actorType": "SortMaster", "level": 1},
  {"mission": "Cleanup", "actorType": "SortClient", "level": 1}]}}`

const refinedModel = `{"version": 1, "platform": "SortMerge",
 "description": "Iteration 2: ProcessGraph and LoadGraph refined to the system level.",
 "root": {"mission": "SortJob", "actorType": "SortClient", "level": 1, "children": [
  {"mission": "Startup", "actorType": "SortClient", "level": 1},
  {"mission": "LoadGraph", "actorType": "SortMaster", "level": 1, "children": [
   {"mission": "LocalLoad", "actorType": "SortWorker", "level": 2, "perActor": true}]},
  {"mission": "ProcessGraph", "actorType": "SortMaster", "level": 1, "children": [
   {"mission": "LocalSort", "actorType": "SortWorker", "level": 2, "perActor": true},
   {"mission": "Merge", "actorType": "SortWorker", "level": 2}]},
  {"mission": "OffloadGraph", "actorType": "SortMaster", "level": 1},
  {"mission": "Cleanup", "actorType": "SortClient", "level": 1}]}}`

// Example_customModel runs the paper's modeling workflow (Sections
// 3.2-3.3) on a platform without a shipped model: write a coarse model,
// check a job against it, then refine the model where the time goes.
func Example_customModel() {
	coarse, err := core.LoadModelJSON(strings.NewReader(coarseModel))
	if err != nil {
		log.Fatal(err)
	}

	// Run the instrumented job once, with the environment monitor on,
	// then assemble its operation log and samples into an archive job.
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 4, CoresPerNode: 8,
		DiskBandwidth: 200e6, NICBandwidth: 1e9, SharedFSBandwidth: 500e6,
		NodeNamePrefix: "node", NodeNameStart: 1,
	})
	var records []trace.Record
	var samples []envmon.Sample
	em := trace.NewEmitter(func(r trace.Record) { records = append(records, r) }, "sortmerge-1", eng.Now)
	mon := envmon.Start(c, 0.5, func(s envmon.Sample) { samples = append(samples, s) })
	eng.Spawn("sortmerge", func(p *sim.Proc) {
		sortMergeJob(p, c, em)
		mon.Stop()
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	job, err := monitor.Assemble("sortmerge-1", "SortMerge", records, samples)
	if err != nil {
		log.Fatal(err)
	}
	metrics.StandardRules().Apply(job)

	// The coarse model explains the domain level but flags the
	// worker-level operations the platform actually logs.
	errs := coarse.CheckJob(job)
	fmt.Printf("coarse model: %d unexplained operations\n", len(errs))
	for _, e := range errs {
		fmt.Println("  ", e)
	}
	bar, err := viz.BreakdownBar(job, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\n", bar)

	// ProcessGraph dominates, so the refined model adds its internals
	// (a LocalSort per worker, then Merge) and per-worker loading.
	refined, err := core.LoadModelJSON(strings.NewReader(refinedModel))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefined model: %d unexplained operations\n", len(refined.CheckJob(job)))
	for _, op := range job.FindAll("LocalSort") {
		fmt.Printf("  %-14s %.2fs\n", op.Actor, op.Duration())
	}
	// Output:
	// coarse model: 9 unexplained operations
	//    core: op op-000004 (LocalLoad): mission "LocalLoad" is not modeled under "LoadGraph"
	//    core: op op-000005 (LocalLoad): mission "LocalLoad" is not modeled under "LoadGraph"
	//    core: op op-000006 (LocalLoad): mission "LocalLoad" is not modeled under "LoadGraph"
	//    core: op op-000007 (LocalLoad): mission "LocalLoad" is not modeled under "LoadGraph"
	//    core: op op-000009 (LocalSort): mission "LocalSort" is not modeled under "ProcessGraph"
	//    core: op op-000010 (LocalSort): mission "LocalSort" is not modeled under "ProcessGraph"
	//    core: op op-000011 (LocalSort): mission "LocalSort" is not modeled under "ProcessGraph"
	//    core: op op-000012 (LocalSort): mission "LocalSort" is not modeled under "ProcessGraph"
	//    core: op op-000013 (Merge): mission "Merge" is not modeled under "ProcessGraph"
	//
	// sortmerge-1 (SortMerge): total 10.20s
	//   [sssiiipppppppppppppppppppppppppppppppppppppppppppppppppppis]
	//   setup (s): 6.9%   input/output (i): 7.4%   processing (p): 85.8%
	//
	// refined model: 0 unexplained operations
	//   SortWorker-0   3.00s
	//   SortWorker-1   3.25s
	//   SortWorker-2   3.50s
	//   SortWorker-3   3.75s
}
