package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocCommands feeds every documented granula-router command line through
// parseFlags, so a renamed or deleted flag cannot linger in the docs.
func TestDocCommands(t *testing.T) {
	lines := documentedLines(t, "granula-router")
	if len(lines) == 0 {
		t.Fatal("no document shows a granula-router command line")
	}
	for _, l := range lines {
		if _, err := parseFlags(l.args, io.Discard); err != nil {
			t.Errorf("%s: granula-router %q does not parse: %v", l.at, l.args, err)
		}
	}
}

// docLine is one documented command line: where it starts and its
// arguments.
type docLine struct {
	at   string
	args []string
}

// documentedLines returns every command line in README, DESIGN and
// EXPERIMENTS that runs ./cmd/<name>, `\` continuations joined. A "..."
// word stands for elided arguments and is dropped.
func documentedLines(t *testing.T, name string) []docLine {
	t.Helper()
	cmd := regexp.MustCompile(`\./cmd/` + name + "((?:\\s[^`]*)?)(?:`|$)")
	var out []docLine
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
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
			for _, m := range cmd.FindAllStringSubmatch(line, -1) {
				var args []string
				for _, w := range shellWords(m[1]) {
					if w != "..." {
						args = append(args, w)
					}
				}
				out = append(out, docLine{fmt.Sprintf("%s:%d", doc, at), args})
			}
		}
	}
	return out
}

// shellWords splits a documented command line into arguments as a shell
// would, up to the end of the command: a comment, a pipe, a redirection
// or a command separator.
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
		case !inWord && strings.ContainsRune("#|>;&)", r):
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
