package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocCommands holds the documents to the binaries: every `go run
// ./cmd/<x>` names a package that exists, and every `granula <sub> ...`
// command line names a subcommand whose own FlagSet parses its flags.
// Nothing runs. Every subcommand must be documented at least once.
func TestDocCommands(t *testing.T) {
	goRun := regexp.MustCompile(`go run \./cmd/([\w-]+)`)
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
