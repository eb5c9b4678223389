package trace_test

import (
	"fmt"

	"repro/internal/trace"
)

// A platform instruments one operation with a nested child; each record
// reaches the sink as it is emitted, as it reaches a job's assembler.
func ExampleEmitter() {
	clock := 0.0
	var records []trace.Record
	em := trace.NewEmitter(func(r trace.Record) { records = append(records, r) }, "job-1", func() float64 { return clock })

	job := em.Start(trace.Root, "Client", "Job")
	clock = 1
	load := em.Start(job, "Worker-0", "LoadGraph")
	em.Info(load, "Bytes", "4096")
	clock = 3
	em.End(load)
	clock = 4
	em.End(job)

	for _, r := range records {
		switch r.Event {
		case trace.EventStart:
			fmt.Printf("start %s (%s) at t=%.0f\n", r.Mission, r.Actor, r.Time)
		case trace.EventInfo:
			fmt.Printf("info  %s=%s\n", r.Key, r.Value)
		case trace.EventEnd:
			fmt.Printf("end   %s at t=%.0f\n", r.Op, r.Time)
		}
	}
	// Output:
	// start Job (Client) at t=0
	// start LoadGraph (Worker-0) at t=1
	// info  Bytes=4096
	// end   op-000002 at t=3
	// end   op-000001 at t=4
}
