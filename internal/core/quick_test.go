package core

import (
	"errors"
	"testing"
	"testing/quick"

	"ltc/internal/model"
	"ltc/internal/stats"
)

// TestQuickAlgorithmInvariants uses testing/quick to fuzz instance shapes
// and asserts, for every algorithm, the full arrangement contract:
// validity (capacity/eligibility/no-duplicates), completion when the run
// reports completion, and latency bounded by the workers consumed.
func TestQuickAlgorithmInvariants(t *testing.T) {
	prop := func(seed uint32, tRaw, wRaw, kRaw, eRaw uint8) bool {
		rng := stats.NewRand(uint64(seed))
		nTasks := 2 + int(tRaw)%5        // 2..6
		nWorkers := 30 + int(wRaw)%50    // 30..79
		k := 1 + int(kRaw)%4             // 1..4
		eps := 0.1 + float64(eRaw%13)/60 // 0.1..0.3
		in := randomInstance(rng, nTasks, nWorkers, k, eps)
		ci := model.NewCandidateIndex(in)

		check := func(res *Result, err error) bool {
			if err != nil {
				return false
			}
			if !res.Completed {
				return false
			}
			if res.Latency <= 0 || res.Latency > res.WorkersSeen {
				return false
			}
			return res.Arrangement.Validate(in, true) == nil
		}

		if !check(RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewLAF(in, ci)
		})) {
			return false
		}
		if !check(RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewAAM(in, ci)
		})) {
			return false
		}
		// Random is not guaranteed to finish: randomInstance only certifies
		// the instance completable by LAF, and random draws can waste enough
		// capacity to exhaust the stream. Require a valid arrangement and
		// consistent accounting, but tolerate ErrIncomplete.
		resR, errR := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewRandom(in, ci, uint64(seed)+1)
		})
		if errR != nil && !errors.Is(errR, ErrIncomplete) {
			return false
		}
		if resR.Latency < 0 || resR.Latency > resR.WorkersSeen {
			return false
		}
		if resR.Arrangement.Validate(in, resR.Completed) != nil {
			return false
		}
		if !check(RunOffline(in, ci, &MCFLTC{})) {
			return false
		}
		return check(RunOffline(in, ci, BaseOff{}))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOnlinePrefixProperty: an online algorithm's assignments to the
// first i workers must not depend on the workers after i — verified by
// truncating the stream and comparing prefixes.
func TestQuickOnlinePrefixProperty(t *testing.T) {
	prop := func(seed uint32, cut uint8) bool {
		rng := stats.NewRand(uint64(seed))
		in := randomInstance(rng, 4, 60, 2, 0.2)
		ci := model.NewCandidateIndex(in)

		full := NewAAM(in, ci)
		var fullPairs []model.Assignment
		for _, w := range in.Workers {
			if full.Done() {
				break
			}
			for _, oc := range full.Arrive(w) {
				fullPairs = append(fullPairs, model.Assignment{Worker: w.Index, Task: oc.Task})
			}
		}

		cutAt := 1 + int(cut)%30
		trunc := *in
		trunc.Workers = in.Workers[:cutAt]
		tci := model.NewCandidateIndex(&trunc)
		part := NewAAM(&trunc, tci)
		var partPairs []model.Assignment
		for _, w := range trunc.Workers {
			if part.Done() {
				break
			}
			for _, oc := range part.Arrive(w) {
				partPairs = append(partPairs, model.Assignment{Worker: w.Index, Task: oc.Task})
			}
		}

		// partPairs must be a prefix of fullPairs.
		if len(partPairs) > len(fullPairs) {
			return false
		}
		for i := range partPairs {
			if partPairs[i] != fullPairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
