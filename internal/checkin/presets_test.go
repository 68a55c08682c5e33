package checkin

import (
	"testing"

	"ltc/internal/model"
)

// TestTableVPresets is the table-driven pin of the paper's check-in dataset
// presets (Table V): published cardinalities plus the parameter ranges the
// generator's structural properties depend on.
func TestTableVPresets(t *testing.T) {
	cases := []struct {
		name        string
		cfg         CityConfig
		numTasks    int
		numCheckins int
		gridW       float64
		gridH       float64
	}{
		{"newyork", NewYork(), 3717, 227428, 2000, 2000},
		{"tokyo", Tokyo(), 9317, 573703, 3000, 3000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg
			if c.NumTasks != tc.numTasks || c.NumCheckins != tc.numCheckins {
				t.Errorf("|T|=%d |W|=%d, want %d/%d", c.NumTasks, c.NumCheckins, tc.numTasks, tc.numCheckins)
			}
			if c.GridWidth != tc.gridW || c.GridHeight != tc.gridH {
				t.Errorf("grid %vx%v, want %vx%v", c.GridWidth, c.GridHeight, tc.gridW, tc.gridH)
			}
			// Table V shares the synthetic evaluation's parameters: K = 6,
			// dmax = 30 (300 m), Normal(0.86, 0.05) accuracies.
			if c.K != 6 || c.DMax != 30 {
				t.Errorf("K=%d dmax=%v, want 6/30", c.K, c.DMax)
			}
			if c.Epsilon != 0.10 {
				t.Errorf("ε=%v, want 0.10 (swept elsewhere)", c.Epsilon)
			}
			if c.AccMean != 0.86 || c.AccStd != 0.05 {
				t.Errorf("accuracy %v±%v, want 0.86±0.05", c.AccMean, c.AccStd)
			}
			if c.MinAcc != 0.5 {
				t.Errorf("MinAcc %v, want 0.5", c.MinAcc)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("preset invalid: %v", err)
			}
		})
	}
}

// TestTableVAccuracyTruncation: generated historical accuracies must stay
// inside [SpamThreshold, 1] — the platform's spam-filter assumption — for
// every preset.
func TestTableVAccuracyTruncation(t *testing.T) {
	for _, cfg := range []CityConfig{NewYork(), Tokyo()} {
		cfg := cfg.Scale(0.005)
		t.Run(cfg.Name, func(t *testing.T) {
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tr.Instance.Workers {
				if w.Acc < model.SpamThreshold || w.Acc > 1 {
					t.Fatalf("worker %d accuracy %v outside [%v, 1]", w.Index, w.Acc, model.SpamThreshold)
				}
			}
		})
	}
}
