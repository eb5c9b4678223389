// Command granula is the Granula command line. Its run subcommand runs
// one job under the full pipeline (modeling, monitoring, archiving) and
// writes the performance archive; every other subcommand reads archives
// back:
//
//	granula run   -platform giraph -algorithm bfs -archive out/archive.json
//	granula model -check out/archive.json -job giraph-bfs-dg1000
//	granula query -archive out/archive.json -job giraph-bfs-dg1000 -breakdown
//	granula viz   -archive out/archive.json -job giraph-bfs-dg1000 -chart gantt
//	granula diff  -baseline main/archive.json -current pr/archive.json
//
// Every subcommand keeps one exit-code contract, so a CI caller can tell
// a finding from a broken input:
//
//	0 — ok
//	1 — a finding: a regression, a model mismatch, no operation matched
//	2 — usage or input error (bad flags, unreadable or invalid files,
//	    unknown job, no comparable jobs)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/archive"
)

const (
	exitOK      = 0
	exitFinding = 1
	exitError   = 2
)

// subcommands maps each name to a function that defines the
// subcommand's flags on fs and returns its body, to run once fs has
// parsed the arguments. Keeping the two apart lets a test parse a
// documented command line without running it.
var subcommands = map[string]func(fs *flag.FlagSet) func(stdout, stderr io.Writer) int{
	"run":   runCmd,
	"model": modelCmd,
	"query": queryCmd,
	"viz":   vizCmd,
	"diff":  diffCmd,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the subcommand args[0] with the flags that follow it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		return errorf(stderr, "usage: granula run|model|query|viz|diff [flags]; granula <subcommand> -h lists its flags")
	}
	fs := flag.NewFlagSet("granula "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := subcommands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		return exitError
	}
	if fs.NArg() > 0 {
		return errorf(stderr, "granula %s: unexpected argument %q", args[0], fs.Arg(0))
	}
	return body(stdout, stderr)
}

// errorf reports a usage or input error and returns its exit code.
func errorf(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, format+"\n", args...)
	return exitError
}

func loadArchive(path string) (*archive.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := archive.Load(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return a, nil
}

// pickJob returns the job with the given ID, or the first job when id
// is empty.
func pickJob(a *archive.Archive, id string) (*archive.Job, error) {
	if id == "" {
		if len(a.Jobs) == 0 {
			return nil, errors.New("archive has no jobs")
		}
		return a.Jobs[0], nil
	}
	if j := a.Job(id); j != nil {
		return j, nil
	}
	return nil, fmt.Errorf("no job %q in archive", id)
}

// writeFile creates path, and its directory if missing, and fills it
// with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeString is writeFile for content already rendered.
func writeString(path, content string) error {
	return writeFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
}
