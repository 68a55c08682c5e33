// Package linttest runs ltclint analyzers over fixture packages and checks
// their findings against inline expectations, in the spirit of
// golang.org/x/tools/go/analysis/analysistest but with no dependency beyond
// the standard library.
//
// A fixture directory holds one Go package. Lines that should produce a
// diagnostic carry a trailing marker:
//
//	s.tasks[i] = v // want "direct element store"
//
// The quoted string is a regular expression matched against the finding's
// message; several markers may share one line (`// want "a" "b"`). Waived
// diagnostics never reach the comparison, so a fixture line carrying an
// //ltclint:ignore directive and no want marker asserts that the waiver
// machinery actually suppressed the diagnostic.
package linttest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ltc/internal/lint"
	"ltc/internal/lint/analysis"
	"ltc/internal/lint/load"
)

// fixtureImports are the standard-library packages fixtures may import.
// Export data is resolved once per test binary.
var fixtureImports = []string{"sync", "sync/atomic", "fmt", "errors", "context", "strings"}

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

func stdExports() (map[string]string, error) {
	exportsOnce.Do(func() {
		exportsMap, exportsErr = load.StdExports(fixtureImports...)
	})
	return exportsMap, exportsErr
}

// want is one expectation: a diagnostic whose message matches re, at
// file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run analyzes the fixture package in dir with the single analyzer a and
// compares unwaived findings against the // want markers in the fixture
// sources. Both directions are checked: every finding needs a marker and
// every marker needs a finding.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	wants, err := parseWants(files)
	if err != nil {
		t.Fatal(err)
	}

	exports, err := stdExports()
	if err != nil {
		t.Fatalf("resolving std export data: %v", err)
	}
	fset := token.NewFileSet()
	pkg, err := load.Files(fset, "ltclint/fixture/"+filepath.Base(dir), files, exports)
	if err != nil {
		t.Fatalf("loading fixture package: %v", err)
	}

	findings, err := lint.AnalyzePackage([]*analysis.Analyzer{a}, pkg, analysis.NewFactStore())
	if err != nil {
		t.Fatalf("analyzing fixture package: %v", err)
	}

	for _, f := range findings {
		if !claim(wants, f.Pos.Filename, f.Pos.Line, f.Message) {
			t.Errorf("unexpected finding at %s:%d: %s: %s",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no finding matched want %q at %s:%d", w.raw, filepath.Base(w.file), w.line)
		}
	}
}

// claim marks the first unmatched want at (file, line) whose regexp matches
// message, reporting whether one existed.
func claim(wants []*want, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts the // want markers from the fixture sources. Markers
// are textual, not AST comments, so they work on any line — including lines
// inside general declarations.
func parseWants(files []string) ([]*want, error) {
	var wants []*want
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			exprs, err := splitQuoted(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", file, i+1, err)
			}
			if len(exprs) == 0 {
				return nil, fmt.Errorf("%s:%d: // want marker with no expectation", file, i+1)
			}
			for _, e := range exprs {
				re, err := regexp.Compile(e)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", file, i+1, e, err)
				}
				wants = append(wants, &want{file: file, line: i + 1, re: re, raw: e})
			}
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// splitQuoted parses a sequence of Go-quoted strings: `"a" "b c"` → [a, b c].
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, fmt.Errorf("want expectations must be double-quoted strings, got %q", s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated want string in %q", s)
		}
		unq, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad want string %q: %v", s[:end+1], err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}
