package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// TestInstanceRoundTrip writes an instance the way the CLI does and reads
// it back with loadInstance, checking full fidelity of the parameters the
// algorithms consume.
func TestInstanceRoundTrip(t *testing.T) {
	cfg := workload.Default().Scale(0.002)
	cfg.Seed = 5
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}

	doc := jsonInstance{
		Kind:    "synthetic",
		Epsilon: in.Epsilon,
		Delta:   in.Delta(),
		K:       in.K,
		DMax:    cfg.DMax,
		MinAcc:  in.MinAcc,
	}
	for _, task := range in.Tasks {
		doc.Tasks = append(doc.Tasks, jsonTask{ID: int32(task.ID), X: task.Loc.X, Y: task.Loc.Y})
	}
	for _, w := range in.Workers {
		doc.Workers = append(doc.Workers, jsonWorker{Index: w.Index, X: w.Loc.X, Y: w.Loc.Y, Acc: w.Acc})
	}

	path := filepath.Join(t.TempDir(), "instance.json")
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	back, err := loadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != len(in.Tasks) || len(back.Workers) != len(in.Workers) {
		t.Fatalf("counts changed: %d/%d vs %d/%d",
			len(back.Tasks), len(back.Workers), len(in.Tasks), len(in.Workers))
	}
	if back.Epsilon != in.Epsilon || back.K != in.K || back.MinAcc != in.MinAcc {
		t.Fatalf("parameters changed: %+v", back)
	}
	for i := range in.Tasks {
		if back.Tasks[i] != in.Tasks[i] {
			t.Fatalf("task %d changed: %+v vs %+v", i, back.Tasks[i], in.Tasks[i])
		}
	}
	for i := range in.Workers {
		if back.Workers[i] != in.Workers[i] {
			t.Fatalf("worker %d changed", i)
		}
	}
	// The accuracy model must predict identically after the round trip.
	w, task := in.Workers[0], in.Tasks[0]
	if got, want := back.Model.Predict(w, task), in.Model.Predict(w, task); got != want {
		t.Fatalf("model prediction changed: %v vs %v", got, want)
	}
}

// TestTraceUserZeroSurvives: user ids are 0-based, so the trace annotation
// for user 0 must not be dropped by omitempty (it was, when User was a
// plain int).
func TestTraceUserZeroSurvives(t *testing.T) {
	zero := 0
	raw, err := json.Marshal(jsonWorker{Index: 1, Acc: 0.9, User: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(string(raw), `"user":0`) {
		t.Fatalf("user 0 annotation dropped: %s", raw)
	}
	var back jsonWorker
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.User == nil || *back.User != 0 {
		t.Fatalf("user 0 did not round-trip: %+v", back)
	}
}

func TestLoadInstanceMissingFile(t *testing.T) {
	if _, err := loadInstance(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadInstanceBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInstance(path); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestLoadInstanceValidates(t *testing.T) {
	// A structurally broken instance (worker indices out of order) must be
	// rejected by the embedded validation.
	doc := jsonInstance{
		Kind: "synthetic", Epsilon: 0.1, K: 2, DMax: 30, MinAcc: 0.5,
		Tasks:   []jsonTask{{ID: 0}},
		Workers: []jsonWorker{{Index: 2, Acc: 0.9}},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInstance(path); err == nil {
		t.Fatal("invalid instance must be rejected")
	}
	var wantErr = model.ErrWorkerOrder
	if _, err := loadInstance(path); err == nil || !contains(err.Error(), "arrival order") {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// loadInstance reads an instance previously written by ltcgen and validates
// it: the reader the round-trip tests check ltcgen's output with (the CLI
// itself only writes).
func loadInstance(path string) (*model.Instance, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc jsonInstance
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	in := &model.Instance{
		Epsilon: doc.Epsilon,
		K:       doc.K,
		Model:   model.SigmoidDistance{DMax: doc.DMax},
		MinAcc:  doc.MinAcc,
	}
	for _, t := range doc.Tasks {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(t.ID), Loc: geo.Point{X: t.X, Y: t.Y}})
	}
	for _, w := range doc.Workers {
		in.Workers = append(in.Workers, model.Worker{Index: w.Index, Loc: geo.Point{X: w.X, Y: w.Y}, Acc: w.Acc})
	}
	return in, in.Validate()
}
