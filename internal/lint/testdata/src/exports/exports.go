// Package exports is the fixture of the dead-export check. Its sibling
// package caller is the only code that uses it.
package exports

// Unused is exported, and nothing calls it.
func Unused() {}

// Called is exported, and package caller calls it.
func Called() {}

// Runner is the interface through which Exec reaches Impl's methods.
type Runner interface {
	Run()
	Stop()
}

// Exec runs r.
func Exec(r Runner) {
	r.Run()
	r.Stop()
}

// Impl is a Runner. No code names its methods; Exec calls them through the
// interface.
type Impl struct{}

// Run is reached only through Runner.
func (Impl) Run() {}

// Stop is reached only through Runner.
func (*Impl) Stop() {}

// Other has a method named like Runner's, but no Stop, so it is no Runner
// and its Run is dead.
type Other struct{}

// Run is called by nothing.
func (Other) Run() {}
