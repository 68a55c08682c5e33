// Command ltclint runs the ltclint analyzer suite (internal/lint): custom
// static checks that enforce the dispatch layer's concurrency contracts —
// lock ordering, hot-path allocation freedom, and hot-struct field
// alignment — over the non-test sources of the packages matched:
//
//	go run ./cmd/ltclint ./...
//
// It exits 2 on any unwaived diagnostic, malformed directive or stale
// waiver, and 1 when the packages fail to load.
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
