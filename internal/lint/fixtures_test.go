package lint_test

import (
	"testing"

	"ltc/internal/lint"
	"ltc/internal/lint/linttest"
)

// TestLockOrderFixtures checks both directions: every deliberate violation
// under testdata/src/lockorder fires, and every clean idiom stays silent.
func TestLockOrderFixtures(t *testing.T) {
	linttest.Run(t, lint.LockOrder, "testdata/src/lockorder")
}

// TestLtclintCleanOverRepo is the in-repo gate behind the CI job: the whole
// module must analyze with zero findings.
func TestLtclintCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	findings, err := lint.Run("../..", "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}
