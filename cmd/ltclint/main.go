// Command ltclint runs the ltclint analyzer suite (internal/lint): custom
// static checks that enforce the dispatch layer's concurrency contracts —
// lock ordering, hot-path allocation freedom, and hot-struct field
// alignment.
//
// Standalone (the mode CI uses):
//
//	go run ./cmd/ltclint ./...
//
// As a vet tool, using the toolchain's unit-checker protocol:
//
//	go build -o /tmp/ltclint ./cmd/ltclint
//	go vet -vettool=/tmp/ltclint ./...
//
// In vet-tool mode each package is analyzed in a separate process;
// cross-package lock-acquisition facts are persisted through the .vetx
// mechanism. Diagnostics in _test.go files are suppressed in vet-tool mode
// (tests intentionally poke at internals); the standalone mode analyzes
// exactly the non-test sources, matching the CI gate.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"strings"

	"ltc/internal/lint"
	"ltc/internal/lint/analysis"
	"ltc/internal/lint/load"
)

func main() {
	args := os.Args[1:]

	// Unit-checker protocol, spoken by `go vet -vettool=`.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			// The content after the name feeds the build cache key.
			fmt.Printf("ltclint version 1 suite %s\n", strings.Join(analyzerNames(), ","))
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(vetUnit(args[0]))
		}
	}

	patterns := args
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

func analyzerNames() []string {
	var names []string
	for _, a := range lint.Analyzers {
		names = append(names, a.Name)
	}
	return names
}

// vetConfig mirrors the JSON config cmd/go passes to vet tools.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltclint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ltclint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	exports := make(map[string]string, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	// Source-level import paths may need mapping to canonical ones.
	for src, canon := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canon]; ok {
			exports[src] = file
		}
	}

	fset := token.NewFileSet()
	pkg, err := load.Files(fset, cfg.ImportPath, cfg.GoFiles, exports)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
			writeVetx(cfg.VetxOutput, map[string]any{})
			return 0
		}
		fmt.Fprintf(os.Stderr, "ltclint: %v\n", err)
		return 1
	}

	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue // facts are an optimization; missing ones only lose precision
		}
		var m map[string]any
		if json.Unmarshal(data, &m) == nil {
			for k, v := range m {
				facts.Set(k, v)
			}
		}
	}

	findings, err := lint.AnalyzePackage(lint.Analyzers, pkg, facts, !cfg.VetxOnly)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ltclint: %v\n", err)
		return 1
	}
	if cfg.VetxOutput != "" {
		writeVetx(cfg.VetxOutput, facts.All())
	}
	if cfg.VetxOnly {
		return 0
	}
	shown := 0
	for _, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, "_test.go") {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
		shown++
	}
	if shown > 0 {
		return 2
	}
	return 0
}

func writeVetx(path string, facts map[string]any) {
	if path == "" {
		return
	}
	data, err := json.Marshal(facts)
	if err != nil {
		data = []byte("{}")
	}
	_ = os.WriteFile(path, data, 0o666)
}
