package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocCommands holds the documents to the binaries: every `go run
// ./cmd/<x>` names a package that exists, every `go run ./cmd/experiments
// ...` line parses against that command's flags with each -exp value one
// of its experiments, and every `granula <sub> ...` command line names a
// subcommand whose own FlagSet parses its flags. Nothing runs. Every
// subcommand must be documented at least once.
func TestDocCommands(t *testing.T) {
	goRun := regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	experimentsCmd := regexp.MustCompile("go run \\./cmd/experiments([^`]*)")
	experiments, exps := experimentsCLI(t)
	// One space after "granula": aligned columns such as the README's
	// layout listing are not command lines.
	granulaCmd := regexp.MustCompile("(?:^|[\\s`/(])granula ([^\\s`]+)(.*)")
	documented := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		for i := 0; i < len(lines); i++ {
			at, line := i+1, lines[i]
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if files, _ := filepath.Glob(filepath.Join("..", m[1], "*.go")); len(files) == 0 {
					t.Errorf("%s:%d: go run ./cmd/%s: no such package", doc, at, m[1])
				}
			}
			for _, m := range experimentsCmd.FindAllStringSubmatch(line, -1) {
				fs := experiments()
				args := shellWords(m[1])
				if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
					t.Errorf("%s:%d: go run ./cmd/experiments %q does not parse: %v %v", doc, at, args, err, fs.Args())
				}
				for _, exp := range strings.Split(fs.Lookup("exp").Value.String(), ",") {
					if !exps[exp] {
						t.Errorf("%s:%d: go run ./cmd/experiments: no experiment %q", doc, at, exp)
					}
				}
			}
			m := granulaCmd.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			define := subcommands[m[1]]
			if define == nil {
				t.Errorf("%s:%d: granula %s: no such subcommand", doc, at, m[1])
				continue
			}
			documented[m[1]] = true
			fs := flag.NewFlagSet(m[1], flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			define(fs)
			args := shellWords(m[2])
			if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
				t.Errorf("%s:%d: granula %s %q does not parse: %v %v", doc, at, m[1], args, err, fs.Args())
			}
		}
	}
	for name := range subcommands {
		if !documented[name] {
			t.Errorf("no document shows granula %s", name)
		}
	}
}

// docBudget is the most lines README, DESIGN and EXPERIMENTS may hold
// together. Raising it is a reviewed edit of this line, not drift.
const docBudget = 1064

// TestDocBudget holds the three documents to docBudget lines, counted
// as wc -l counts them, and prints each file's count.
func TestDocBudget(t *testing.T) {
	total := 0
	var counts []string
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		n := strings.Count(string(raw), "\n")
		total += n
		counts = append(counts, fmt.Sprintf("%s %d", doc, n))
	}
	t.Logf("%s; total %d of %d", strings.Join(counts, ", "), total, docBudget)
	if total > docBudget {
		t.Errorf("%s: %d lines, over the budget of %d", strings.Join(counts, ", "), total, docBudget)
	}
}

// experimentsCLI reads cmd/experiments' flags and -exp values from its
// source, since a main package cannot be imported: it returns a FlagSet
// maker with the same flag names and kinds (each bool flag a bool), and
// the keys of experimentSteps plus "all".
func experimentsCLI(t *testing.T) (func() *flag.FlagSet, map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../experiments/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bools, values := map[string]bool{}, map[string]bool{}
	exps := map[string]bool{"all": true}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		v, err := strconv.Unquote(lit.Value)
		return v, err == nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) == 0 {
				break
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
				if name, ok := str(n.Args[0]); ok {
					if sel.Sel.Name == "Bool" {
						bools[name] = true
					} else {
						values[name] = true
					}
				}
			}
		case *ast.FuncDecl:
			if n.Name.Name == "experimentSteps" {
				ast.Inspect(n, func(n ast.Node) bool {
					if kv, ok := n.(*ast.KeyValueExpr); ok {
						if key, ok := str(kv.Key); ok {
							exps[key] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	if !values["exp"] || len(exps) < 2 {
		t.Fatalf("cmd/experiments: found no -exp flag or experiments (flags %v %v, experiments %v)", bools, values, exps)
	}
	return func() *flag.FlagSet {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for name := range bools {
			fs.Bool(name, false, "")
		}
		for name := range values {
			fs.String(name, "all", "")
		}
		return fs
	}, exps
}

// shellWords splits a documented command line into arguments as a shell
// would, up to the end of the command: the backtick that closes inline
// code, a comment, a pipe, a redirection or a command separator.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
scan:
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '"' || r == '\'':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case r == '`' || (!inWord && strings.ContainsRune("#|>;&)", r)):
			break scan
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}
