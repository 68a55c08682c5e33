package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ltc/internal/lint"
)

// wantRE matches a fixture line's trailing marker, one quoted regexp that the
// finding reported on that line must match: `s.mu.Lock() // want "already held"`.
var wantRE = regexp.MustCompile(`// want (".*")$`)

// unmarked lists expectations that a marker cannot carry, because any text
// after an //ltc:lock directive's class makes it malformed. Each names the
// fixture line it belongs to by its text.
var unmarked = []struct{ file, line, want string }{
	{"lockorder/lockorder.go", "//ltc:lock bogus", `//ltc:lock names unknown lock class "bogus"`},
}

// TestLockOrderFixtures checks both directions on each fixture package: every
// deliberate violation fires, and every clean idiom stays silent. crosspkg is
// matched alone, so the leaf lock it calls into is known only from the facts
// of its dependency, whose own findings are not reported.
func TestLockOrderFixtures(t *testing.T) {
	for _, name := range []string{"lockorder", "crosspkg"} {
		t.Run(name, func(t *testing.T) {
			findings, err := lint.Run("testdata/src", "./"+name)
			if err != nil {
				t.Fatalf("lint.Run: %v", err)
			}
			wants := fixtureWants(t, name)
			for _, f := range findings {
				key := f.Pos.Filename + ":" + strconv.Itoa(f.Pos.Line)
				if re := wants[key]; re != nil && re.MatchString(f.Message) {
					delete(wants, key)
					continue
				}
				t.Errorf("unexpected finding %s", f)
			}
			for key, re := range wants {
				t.Errorf("%s: no finding matches %q", key, re)
			}
		})
	}
}

// fixtureWants returns the expected message of every marked line in the
// fixture package's own files, keyed by absolute file:line.
func fixtureWants(t *testing.T, name string) map[string]*regexp.Regexp {
	files, err := filepath.Glob(filepath.Join("testdata/src", name, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files for %s: %v", name, err)
	}
	wants := map[string]*regexp.Regexp{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(data), "\n") {
			expr := ""
			if m := wantRE.FindStringSubmatch(text); m != nil {
				if expr, err = strconv.Unquote(m[1]); err != nil {
					t.Fatalf("%s:%d: bad want marker: %v", file, i+1, err)
				}
			}
			for _, u := range unmarked {
				if strings.HasSuffix(file, u.file) && strings.TrimSpace(text) == u.line {
					expr = regexp.QuoteMeta(u.want)
				}
			}
			if expr != "" {
				wants[abs+":"+strconv.Itoa(i+1)] = regexp.MustCompile(expr)
			}
		}
	}
	return wants
}

// TestLtclintCleanOverRepo is the in-repo gate behind the CI step: the whole
// module must analyze with zero findings.
func TestLtclintCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	findings, err := lint.RepoFindings()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}
