//go:build !lockdebug

package dispatch

// Release-build stubs for the lockdebug runtime lock-order checker (see
// lockdebug_on.go). Empty bodies compile to nothing and inline away, so the
// instrumented lock sites cost zero when the tag is off. The same invariants
// are enforced statically by ltclint's lockorder analyzer; the tagged build
// re-checks them dynamically on every pull request and, under -race, in the
// nightly stress run.

// lockdebugEnabled reports whether the lockdebug hooks are compiled in.
const lockdebugEnabled = false

func ldLock(class string, ord int)       {}
func ldUnlock(class string, ord int)     {}
func ldAssertNoneHeld(op string)         {}
func ldAssertHeld(class string, ord int) {}
