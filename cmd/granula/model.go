package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/archive"
	"repro/internal/core"
)

// modelCmd manages the performance-model library: list the built-in
// models, render one as a tree, export it to shareable JSON, load a
// JSON model back, and check an archived job against a model — by
// default the built-in model of the job's own platform.
func modelCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	list := fs.Bool("list", false, "list the built-in models")
	platform := fs.String("platform", "", "built-in model to use: giraph, powergraph, openg")
	inPath := fs.String("in", "", "load the model from this JSON file instead")
	render := fs.Bool("render", false, "print the model tree")
	export := fs.String("export", "", "write the model as JSON to this file")
	checkArchive := fs.String("check", "", "check a job in this archive against the model")
	jobID := fs.String("job", "", "job ID for -check (default: first job)")
	return func(stdout, stderr io.Writer) int {
		if *list {
			for _, name := range []string{"Giraph", "PowerGraph", "OpenG"} {
				m := core.ModelFor(name)
				fmt.Fprintf(stdout, "%-12s %d missions, depth %d — %s\n",
					m.Platform, len(m.Missions()), m.MaxDepth(), m.Description)
			}
			return exitOK
		}
		var job *archive.Job
		if *checkArchive != "" {
			a, err := loadArchive(*checkArchive)
			if err != nil {
				return errorf(stderr, "%v", err)
			}
			if job, err = pickJob(a, *jobID); err != nil {
				return errorf(stderr, "%v", err)
			}
		}

		var model *core.Model
		switch {
		case *inPath != "":
			f, err := os.Open(*inPath)
			if err != nil {
				return errorf(stderr, "%v", err)
			}
			model, err = core.LoadModelJSON(f)
			f.Close()
			if err != nil {
				return errorf(stderr, "load model: %v", err)
			}
		case *platform != "":
			if model = core.ModelFor(*platform); model == nil {
				return errorf(stderr, "no built-in model for %q (want giraph, powergraph, or openg)", *platform)
			}
		case job != nil:
			if model = core.ModelFor(job.Platform); model == nil {
				return errorf(stderr, "no built-in model for job %s's platform %q; pass -in <model.json>", job.ID, job.Platform)
			}
		default:
			return errorf(stderr, "usage: granula model (-list | -platform <name> | -in <model.json> | -check <archive.json>) [-render] [-export <file>] [-job <id>]")
		}

		if *render {
			fmt.Fprint(stdout, model.Render())
		}
		if *export != "" {
			if err := writeFile(*export, model.SaveJSON); err != nil {
				return errorf(stderr, "export: %v", err)
			}
			fmt.Fprintf(stdout, "model written to %s\n", *export)
		}
		if job == nil {
			return exitOK
		}
		errs := model.CheckJob(job)
		if len(errs) == 0 {
			fmt.Fprintf(stdout, "job %s conforms to the %s model\n", job.ID, model.Platform)
			return exitOK
		}
		fmt.Fprintf(stdout, "job %s has %d mismatches against the %s model:\n", job.ID, len(errs), model.Platform)
		for _, e := range errs {
			fmt.Fprintln(stdout, " ", e)
		}
		return exitFinding
	}
}
