package core

import (
	"testing"

	"ltc/internal/model"
)

// countingModel counts Predict calls on the model it wraps.
type countingModel struct {
	model.SigmoidDistance
	calls *int
}

func (m countingModel) Predict(w model.Worker, t model.Task) float64 {
	*m.calls++
	return m.SigmoidDistance.Predict(w, t)
}

// TestArriveComputesCreditOnce pins the one-ledger invariant: a grant's
// Acc* credit is the candidate query's, never predicted again. One
// Engine.Arrive therefore calls the accuracy model exactly as often as a
// bare candidate query for the same worker.
func TestArriveComputesCreditOnce(t *testing.T) {
	for name, factory := range allOnlineFactories(3) {
		in := lifecycleInstance(12, 80, 23)
		calls := 0
		in.Model = countingModel{SigmoidDistance: in.Model.(model.SigmoidDistance), calls: &calls}
		ci := model.NewCandidateIndex(in)
		eng := NewEngine(in, ci, factory)
		grants := 0
		for _, w := range in.Workers {
			if eng.Done() {
				break
			}
			calls = 0
			ci.Candidates(w, nil)
			query := calls
			calls = 0
			grants += len(eng.Arrive(w))
			if calls != query {
				t.Fatalf("%s worker %d: Arrive made %d Predict calls, the candidate query %d",
					name, w.Index, calls, query)
			}
		}
		if grants == 0 {
			t.Fatalf("%s: no grants, the test checked nothing", name)
		}
	}
}
