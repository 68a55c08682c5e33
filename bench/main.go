// Command bench is the repository's benchmark: one end-to-end and per-layer
// measurement of the check-in stack, from ltc.Platform's front doors down to
// the candidate index and out through the HTTP gateway and the three-node
// cluster. See README.md in this directory for the workloads, the metrics
// and how they interact; BENCHMARK.json at the repository root is the
// machine-readable manifest.
//
//	go run ./bench                                    all six workloads → bench/out/suite.json
//	go run ./bench -trace 1                           the same plus a traced run per workload
//	go run ./bench -workload wire-cluster -seconds 10 one workload, one JSON result line
//	go run ./bench -compare a.json b.json             hold two suite files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print one JSON result line (default: all six, each in a child process)")
		seed     = flag.Uint64("seed", 42, "workload generator seed")
		seconds  = flag.Float64("seconds", 20, "seconds of measured passes per run")
		trace    = flag.Int("trace", 0, "1 = traced run: spans on, per-layer metrics (with -workload); in suite mode, add a 5 s traced run per workload")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for suite.json and trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two suite.json files (arguments: a.json b.json) against the bounds in BENCHMARK.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "manifest holding the bounds -compare gates on")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two suite files, got %d arguments", flag.NArg()))
		}
		ok, err := compareSuites(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		res, err := runWorkload(runOptions{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			outDir: *outDir, log: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		printMetrics(*workload, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		// The suite reads the env line; the result stays the last line.
		if env, err := json.Marshal(res.Env); err == nil {
			fmt.Printf("env %s\n", env)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(*seed, *seconds, *trace != 0, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printMetrics prints every metric as `workload metric value unit`.
func printMetrics(workload string, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %s %s\n", workload, name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Printf("%s attempted %d count\n%s failed %d count\n", workload, res.Attempted, workload, res.Failed)
}

// suiteFile is bench/out/suite.json: one set of runs of every workload.
type suiteFile struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Started   string                    `json:"started"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
	// Claim is always null: this benchmark states numbers, it claims no gain.
	Claim *string `json:"claim"`
}

// suiteWorkload is one workload's measured run and, with -trace 1, its
// traced run.
type suiteWorkload struct {
	Env       *runEnv                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     bool                   `json:"noisy"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// noisyCanary is how far a workload's canary may sit above the session's
// best before its set is flagged.
const noisyCanary = 1.10

// tracedSeconds is how long the suite's traced run of a workload measures.
const tracedSeconds = 5

// runSuite runs every workload in a fresh child process — so set-up time,
// GC state and peak RSS are per workload — and writes suite.json.
func runSuite(seed uint64, seconds float64, trace bool, outDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	suite := &suiteFile{
		Seed: seed, Seconds: seconds, Started: time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]*suiteWorkload{},
	}
	ok := true
	child := func(name string, traced bool, secs float64) (*runResult, *runEnv, error) {
		t := "0"
		if traced {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", t, "-out", outDir)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, nil, fmt.Errorf("%s: no result line (%v)", name, runErr)
		}
		env := &runEnv{}
		for _, l := range lines[:len(lines)-1] {
			if rest, found := strings.CutPrefix(l, "env "); found {
				_ = json.Unmarshal([]byte(rest), env) // a missing env only loses the noise flag
			} else if !strings.Contains(l, "verify:") {
				fmt.Println(l)
			}
		}
		return &res, env, nil
	}
	for _, w := range workloads {
		res, env, err := child(w.Name, false, seconds)
		if err != nil {
			return false, err
		}
		sw := &suiteWorkload{
			Env: env, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, EndToEnd: res.Metrics,
		}
		ok = ok && res.Correct
		if trace {
			tres, _, err := child(w.Name, true, tracedSeconds)
			if err != nil {
				return false, err
			}
			sw.PerLayer = tres.Metrics
			sw.Correct = sw.Correct && tres.Correct
			sw.Failed += tres.Failed
			ok = ok && tres.Correct
		}
		suite.Workloads[w.Name] = sw
	}
	best := 0.0
	for _, sw := range suite.Workloads {
		if c := sw.Env.CanaryNs; c > 0 && (best == 0 || c < best) {
			best = c
		}
	}
	for name, sw := range suite.Workloads {
		if sw.Noisy = sw.Env.CanaryNs > best*noisyCanary; sw.Noisy {
			fmt.Printf("%s noisy: canary %.0f ns against the session's best %.0f ns\n", name, sw.Env.CanaryNs, best)
		}
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "suite.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", path)
	return ok, nil
}
