// Command ltcgen generates LTC problem instances to JSON: the synthetic
// Table IV workload or the simulated Foursquare-style check-in traces
// (Table V presets). The output is self-contained — task and worker lists
// plus all model parameters — so instances can be archived, diffed, or fed
// to other tools.
//
// Examples:
//
//	ltcgen -kind synthetic -scale 0.05 -out instance.json
//	ltcgen -kind newyork -scale 0.01 -out nyc.json
//	ltcgen -kind tokyo -scale 0.01 -epsilon 0.14 -out tokyo.json -trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ltc/internal/checkin"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// jsonInstance is the serialised form of a model.Instance.
type jsonInstance struct {
	Kind    string       `json:"kind"`
	Epsilon float64      `json:"epsilon"`
	Delta   float64      `json:"delta"`
	K       int          `json:"k"`
	DMax    float64      `json:"dmax"`
	MinAcc  float64      `json:"min_acc"`
	Tasks   []jsonTask   `json:"tasks"`
	Workers []jsonWorker `json:"workers"`
}

type jsonTask struct {
	ID int32   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type jsonWorker struct {
	Index int     `json:"index"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Acc   float64 `json:"accuracy"`
	// User is a pointer so the zero user id survives -trace: with a plain
	// int and omitempty, every check-in by user 0 would serialize without
	// its user field, indistinguishable from untraced output.
	User *int `json:"user,omitempty"` // check-in traces only
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltcgen: ")

	var (
		kind    = flag.String("kind", "synthetic", "instance kind: synthetic, scalability, newyork, tokyo")
		scale   = flag.Float64("scale", 0.05, "dataset scale factor (1.0 = full paper sizes)")
		seed    = flag.Uint64("seed", 1, "generation seed")
		epsilon = flag.Float64("epsilon", 0, "override tolerable error rate (0 = preset default)")
		tasks   = flag.Int("tasks", 0, "override task count before scaling (synthetic kinds)")
		out     = flag.String("out", "-", "output path ('-' for stdout)")
		trace   = flag.Bool("trace", false, "annotate workers with their user id (check-in kinds)")
	)
	flag.Parse()

	var (
		in      *model.Instance
		dmax    float64
		userOf  []int
		kindTag = *kind
	)
	switch *kind {
	case "synthetic", "scalability":
		cfg := workload.Default()
		if *kind == "scalability" {
			cfg = workload.Scalability(10000)
		}
		if *tasks > 0 {
			cfg.NumTasks = *tasks
		}
		cfg = cfg.Scale(*scale)
		cfg.Seed = *seed
		if *epsilon > 0 {
			cfg.Epsilon = *epsilon
		}
		var err error
		in, err = cfg.Generate()
		if err != nil {
			log.Fatal(err)
		}
		dmax = cfg.DMax
	case "newyork", "tokyo":
		cfg := checkin.NewYork()
		if *kind == "tokyo" {
			cfg = checkin.Tokyo()
		}
		cfg = cfg.Scale(*scale)
		cfg.Seed = *seed
		if *epsilon > 0 {
			cfg.Epsilon = *epsilon
		}
		tr, err := checkin.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		in = tr.Instance
		dmax = cfg.DMax
		if *trace {
			userOf = make([]int, len(tr.Checkins))
			for i, ck := range tr.Checkins {
				userOf[i] = ck.User
			}
		}
	default:
		log.Fatalf("unknown kind %q (want synthetic, scalability, newyork or tokyo)", *kind)
	}

	doc := jsonInstance{
		Kind:    kindTag,
		Epsilon: in.Epsilon,
		Delta:   in.Delta(),
		K:       in.K,
		DMax:    dmax,
		MinAcc:  in.MinAcc,
	}
	for _, t := range in.Tasks {
		doc.Tasks = append(doc.Tasks, jsonTask{ID: int32(t.ID), X: t.Loc.X, Y: t.Loc.Y})
	}
	for i, w := range in.Workers {
		jw := jsonWorker{Index: w.Index, X: w.Loc.X, Y: w.Loc.Y, Acc: w.Acc}
		if userOf != nil {
			jw.User = &userOf[i]
		}
		doc.Workers = append(doc.Workers, jw)
	}

	var f *os.File
	if *out == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d tasks, %d workers to %s\n", len(doc.Tasks), len(doc.Workers), *out)
	}
}
