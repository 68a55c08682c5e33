// Package lint is ltclint: one check, lockorder, which enforces the dispatch
// layer's lock order (CONCURRENCY.md). It reads intent from //ltc:lock and
// //ltc:ascending annotations in the source; there are no waivers. (Atomic
// access discipline needs no check: every atomically accessed field is a
// sync/atomic type.)
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one lockorder diagnostic.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: lockorder: %s", f.Pos, f.Message)
}

// Run loads the packages matched by patterns (rooted at dir), applies
// lockorder to each and returns every finding. Packages are analyzed in
// dependency order, so the lock classes an imported function may acquire are
// known before its importers are analyzed.
func Run(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := loadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analyze(pkgs), nil
}

// analyze applies lockorder to pkgs, which are in dependency order, and
// returns the findings of the packages the patterns matched, sorted by
// position.
func analyze(pkgs []*pkg) []Finding {
	facts := lockFacts{}
	var findings []Finding
	for _, p := range pkgs {
		fs := lockOrder(p, facts)
		// In-module dependencies outside the requested patterns are analyzed
		// only for their facts; their diagnostics belong to their own run.
		if !p.depOnly {
			findings = append(findings, fs...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings
}
