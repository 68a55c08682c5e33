package lint_test

import (
	"testing"

	"ltc/internal/lint"
	"ltc/internal/lint/linttest"
)

// The fixture suites check both directions for each analyzer: every
// deliberate violation under testdata/src fires, every clean idiom stays
// silent, and //ltclint:ignore waivers actually suppress.

func TestLockOrderFixtures(t *testing.T) {
	linttest.Run(t, lint.LockOrder, "testdata/src/lockorder")
}

func TestNoAllocFixtures(t *testing.T) {
	linttest.Run(t, lint.NoAlloc, "testdata/src/noalloc")
}

func TestFieldAlignFixtures(t *testing.T) {
	linttest.Run(t, lint.FieldAlign, "testdata/src/fieldalign")
}

// TestLtclintCleanOverRepo is the in-repo gate behind the CI job: the whole
// module must analyze with zero unwaived findings.
func TestLtclintCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	findings, err := lint.Run("../..", "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unwaived finding: %s", f)
	}
}
