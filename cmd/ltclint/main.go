// Command ltclint runs internal/lint's lockorder check, which enforces
// the dispatch layer's lock order, over the non-test sources of the
// packages matched:
//
//	go run ./cmd/ltclint ./...
//
// It exits 2 on any diagnostic, a malformed //ltc:lock directive included,
// and 1 when the packages fail to load.
package main

import (
	"fmt"
	"os"

	"ltc/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltclint:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ltclint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}
