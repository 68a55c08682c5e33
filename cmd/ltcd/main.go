// Command ltcd serves a live LTC Platform over HTTP — the service-grade
// face of the reproduction. It generates a Table IV preset task set (or a
// Table V city trace's tasks), binds the chosen online algorithm behind
// the sharded dispatch layer, and exposes the v2 service API:
//
//	POST   /checkin        check one worker in            → Receipt
//	POST   /checkin/batch  check a worker batch in        → receipts + done
//	POST   /tasks          post a task mid-stream         → global TaskID
//	DELETE /tasks/{id}     retire a task
//	GET    /stats          progress / latency snapshot
//	GET    /events         Server-Sent Events stream (task_posted,
//	                       task_retired, task_completed, platform_done)
//	                       replayed from the first event, or after the
//	                       N-th with ?since=N, then followed live
//
// Examples:
//
//	ltcd                                  # AAM over Table IV @1%, :8080
//	ltcd -scale 0.05 -shards 8 -algo LAF -addr 127.0.0.1:9000
//	ltcd -city newyork -scale 0.005
//
// Cluster mode splits one workload across N processes by a static
// tile→node topology (see CONCURRENCY.md, "Cluster tier"): write the
// topology once, then boot one node per slot with the same workload flags:
//
//	ltcd -cluster init=3 -topology topo.json        # writes the table, exits
//	ltcd -cluster node=0 -topology topo.json -addr :8080
//	ltcd -cluster node=1 -topology topo.json -addr :8081
//	ltcd -cluster node=2 -topology topo.json -addr :8082
//
// Drive it end to end with the bundled load generator, which audits the
// run against an in-process replay built with the layout /stats reports
// (so -balanced gateways audit too):
//
//	go run ./cmd/ltcbench -exp loadgen -url http://127.0.0.1:8080 -scale 0.01
//	go run ./cmd/ltcbench -exp loadgen -cluster http://127.0.0.1:8080,http://127.0.0.1:8081,http://127.0.0.1:8082 -scale 0.01
//
// Its speed is measured by the repository benchmark, `go run ./bench`
// (workloads wire-batch and wire-cluster), not by the load generator.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/httpapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltcd: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		algoName  = flag.String("algo", "AAM", "online algorithm: LAF, AAM or Random")
		shards    = flag.Int("shards", 0, "spatial shard count (0 = GOMAXPROCS)")
		balanced  = flag.Bool("balanced", false, "use the load-aware balanced tile→shard layout instead of fixed striping")
		scale     = flag.Float64("scale", 0.01, "workload scale factor")
		seed      = flag.Uint64("seed", 42, "generation seed (also drives Random)")
		epsilon   = flag.Float64("epsilon", 0.10, "tolerable error rate ε")
		k         = flag.Int("k", 6, "worker capacity K")
		city      = flag.String("city", "", "serve a city trace's tasks instead: newyork or tokyo")
		clusterIn = flag.String("cluster", "", "cluster role: init=N writes an N-node topology file and exits; node=I serves cluster node I (both need -topology)")
		topoPath  = flag.String("topology", "", "cluster topology file (written by -cluster init, read by -cluster node)")
	)
	flag.Parse()

	in, err := buildInstance(*city, *scale, *epsilon, *k, *seed)
	if err != nil {
		log.Fatal(err)
	}
	clusterNode := -1
	if *clusterIn != "" {
		if *topoPath == "" {
			log.Fatal("-cluster needs -topology")
		}
		mode, val, ok := strings.Cut(*clusterIn, "=")
		n, aerr := strconv.Atoi(val)
		if !ok || aerr != nil {
			log.Fatalf("bad -cluster %q (want init=N or node=I)", *clusterIn)
		}
		switch mode {
		case "init":
			// Write the cluster-wide topology artifact and exit: every node
			// (and the loadgen) derives the same table from the same workload
			// flags, so the file is mostly a boot-time cross-check anchor.
			topo, err := cluster.Build(in, n)
			if err != nil {
				log.Fatal(err)
			}
			if err := topo.Save(*topoPath); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %d-node topology (%d tiles, fingerprint %s) to %s",
				topo.Nodes, len(topo.TileNode), topo.Fingerprint(), *topoPath)
			return
		case "node":
			clusterNode = n
		default:
			log.Fatalf("bad -cluster %q (want init=N or node=I)", *clusterIn)
		}
	}
	// Resolve the GOMAXPROCS default here so /stats can echo the exact
	// count a client must request to mirror this platform's spatial grid.
	requested := *shards
	if requested == 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	popts := []ltc.Option{ltc.WithShards(requested), ltc.WithSeed(*seed)}
	if *balanced {
		popts = append(popts, ltc.WithBalancedShards())
	}
	var (
		plat    *ltc.Platform
		handler http.Handler
	)
	if clusterNode >= 0 {
		topo, err := cluster.Load(*topoPath)
		if err != nil {
			log.Fatal(err)
		}
		if clusterNode >= topo.Nodes {
			log.Fatalf("node %d outside the %d-node topology", clusterNode, topo.Nodes)
		}
		// The topology file must describe the exact tiling this node's
		// workload flags generate; serving a mismatched table would misroute
		// silently, so the boot cross-check is fatal.
		rebuilt, err := cluster.Build(in, topo.Nodes)
		if err != nil {
			log.Fatal(err)
		}
		if rebuilt.Fingerprint() != topo.Fingerprint() {
			log.Fatalf("topology fingerprint %s does not match these workload flags (%s) — regenerate with -cluster init=%d",
				topo.Fingerprint(), rebuilt.Fingerprint(), topo.Nodes)
		}
		split, err := cluster.SplitInstance(in, topo)
		if err != nil {
			log.Fatal(err)
		}
		owned := 0
		if sub := split.Subs[clusterNode]; sub != nil {
			owned = len(sub.Global)
			plat, err = ltc.NewPlatform(sub.In, ltc.Algorithm(*algoName), popts...)
			if err != nil {
				log.Fatal(err)
			}
		}
		cs, err := httpapi.NewClusterServer(plat, ltc.Algorithm(*algoName), requested, topo, clusterNode, split)
		if err != nil {
			log.Fatal(err)
		}
		defer cs.Close()
		handler = cs.Handler()
		log.Printf("cluster node %d/%d: serving %d of %d tasks (fingerprint %s) on %s",
			clusterNode, topo.Nodes, owned, topo.TotalTasks, topo.Fingerprint(), *addr)
	} else {
		plat, err = ltc.NewPlatform(in, ltc.Algorithm(*algoName), popts...)
		if err != nil {
			log.Fatal(err)
		}
		handler = httpapi.NewHandler(plat, ltc.Algorithm(*algoName), requested)
		layout := "striped"
		if plat.Balanced() {
			layout = "balanced"
		}
		log.Printf("serving %s over %d tasks (%d shards, %s layout, ε=%.2f, K=%d) on %s",
			*algoName, len(in.Tasks), plat.Shards(), layout, in.Epsilon, in.K, *addr)
	}
	if plat != nil {
		defer plat.Close()
	}
	srv := newServer(*addr, handler)

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests (including open SSE streams, bounded by the timeout) finish.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Printf("shutdown: %v", err)
	}
	if plat == nil {
		log.Printf("final: node owned no tasks")
		return
	}
	log.Printf("final: latency=%d workers=%d done=%v", plat.Latency(), plat.WorkersSeen(), plat.Done())
}

// Connection-level timeouts: how long a client may take to send its request
// headers, and how long an idle keep-alive connection is kept.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the gateway's http.Server with the two timeouts that bound
// a connection doing nothing. It sets no ReadTimeout or WriteTimeout: those
// cover a whole request and response, and GET /events is a response that
// stays open for as long as its subscriber does.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// buildInstance generates the served task set: the synthetic Table IV
// preset by default, or a Table V city trace. The generated worker stream
// is discarded — workers arrive over the wire — but generating with the
// same flags client-side reproduces it, which is how the loadgen drives
// deterministic end-to-end runs.
func buildInstance(city string, scale, epsilon float64, k int, seed uint64) (*ltc.Instance, error) {
	switch city {
	case "":
		cfg := ltc.DefaultWorkload().Scale(scale)
		cfg.Epsilon = epsilon
		cfg.K = k
		cfg.Seed = seed
		return cfg.Generate()
	case "newyork", "tokyo":
		cfg := ltc.NewYork()
		if city == "tokyo" {
			cfg = ltc.Tokyo()
		}
		cfg = cfg.Scale(scale)
		cfg.Epsilon = epsilon
		cfg.K = k
		cfg.Seed = seed
		tr, err := ltc.GenerateCity(cfg)
		if err != nil {
			return nil, err
		}
		return tr.Instance, nil
	default:
		return nil, fmt.Errorf("unknown city %q (want newyork or tokyo)", city)
	}
}
