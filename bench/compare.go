package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifestFile is the part of BENCHMARK.json -compare reads.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a for a metric of the given
// direction, as a share of a: positive means worse, negative better.
// End-to-end metrics are never 0, so a zero a is reported as MISSING before
// this is called.
func worsening(better string, a, b float64) float64 {
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSuites holds suite b against suite a: for every workload and
// end-to-end metric, how much worse b is, against the metric's bound in the
// manifest. It reports every row and returns false on any breach, a missing
// workload or metric, or a failed operation in either set. Sets flagged
// noisy are surfaced but do not change the verdict: a breach on a noisy box
// is re-run, not waved through.
func compareSuites(w io.Writer, manifestPath, aPath, bPath string) (bool, error) {
	var mf manifestFile
	if err := readJSON(manifestPath, &mf); err != nil {
		return false, err
	}
	var a, b suiteFile
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, wl := range mf.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING\n", wl.Name)
			ok = false
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t-\t0\tFAILED\n", wl.Name, wa.Failed, wb.Failed)
			ok = false
		}
		for _, m := range mf.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || m.Bound == nil || va.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tMISSING\n", wl.Name, m.Name)
				ok = false
				continue
			}
			worse := worsening(m.Better, va.Value, vb.Value)
			verdict := "ok"
			if worse > *m.Bound {
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100**m.Bound, verdict)
		}
		if wa.Noisy || wb.Noisy {
			fmt.Fprintf(tw, "%s\tnoisy\t%v\t%v\t-\t-\tnote\n", wl.Name, wa.Noisy, wb.Noisy)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if ok {
		fmt.Fprintln(w, "compare: every end-to-end metric within its bound")
	} else {
		fmt.Fprintln(w, "compare: FAIL")
	}
	return ok, nil
}
