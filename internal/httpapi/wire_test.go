package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ltc"
)

// wireNode is one node implementation behind the shared handler set, as the
// wire table sees it: a base URL, a location and the task IDs it owns, a
// location some other node owns (its own again on the plain gateway, which
// owns everything), and a task ID in its range that was never posted.
type wireNode struct {
	name         string
	url          string
	home, abroad ltc.Task
	tasks        []int
	unknown      int
}

// wireNodes boots both node implementations over the same workload: the
// plain gateway (the Platform adapter) and node 0 of a three-node cluster
// (the decorator around it).
func wireNodes(t *testing.T) []wireNode {
	t.Helper()
	in := tableIV(t, 0.01, 42)

	plat, err := ltc.NewPlatform(in, ltc.AAM, ltc.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plat.Close() })
	srv := httptest.NewServer(NewHandler(plat, ltc.AAM, 2))
	t.Cleanup(srv.Close)
	plain := wireNode{name: "gateway", url: srv.URL, home: in.Tasks[0], abroad: in.Tasks[len(in.Tasks)-1], unknown: 999999}
	for id := range in.Tasks {
		plain.tasks = append(plain.tasks, id)
	}

	f := newCluster(t, in, 3, 2, ltc.AAM, 42)
	node := wireNode{name: "cluster-node", url: f.urls[0], unknown: f.topo.PostedGlobalID(0, 1000)}
	for id, owner := range f.split.OwnerOf {
		switch {
		case owner == 0:
			node.tasks = append(node.tasks, id)
			node.home = in.Tasks[id]
		default:
			node.abroad = in.Tasks[id]
		}
	}
	if len(node.tasks) == 0 || len(node.tasks) == len(in.Tasks) {
		t.Fatalf("node 0 owns %d of %d tasks; the table needs a real split", len(node.tasks), len(in.Tasks))
	}
	return []wireNode{plain, node}
}

// TestWireTable drives one table of wire cases through both node
// implementations. Everything but the misrouted cases must answer
// identically: they are served by one handler set, and only the cluster
// node knows about ownership.
func TestWireTable(t *testing.T) {
	type wireCase struct {
		name         string
		method, path string
		body         string
		status       int
		clusterOnly  int    // status on the cluster node when it differs (421s)
		contains     string // substring of the response body
	}
	at := func(format string, task ltc.Task, index int) string {
		return fmt.Sprintf(format, index, task.Loc.X, task.Loc.Y)
	}
	for _, n := range wireNodes(t) {
		worker := `{"index":%d,"x":%g,"y":%g,"acc":0.9}`
		// Padding after a body's one JSON value: a handler that stops reading
		// at the value's end never notices it, one that reads the body whole
		// must refuse it past maxBody.
		pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
		cases := []wireCase{
			{name: "oversized worker", method: "POST", path: "/checkin", body: pad(at(worker, n.home, 1), maxBody+1), status: 413, contains: "bad worker: http: request body too large"},
			{name: "oversized batch", method: "POST", path: "/checkin/batch", body: pad(`{"workers":[`+at(worker, n.home, 1)+`]}`, maxBody+1), status: 413, contains: "bad batch: http: request body too large"},
			{name: "oversized task", method: "POST", path: "/tasks", body: pad(`{"x":1,"y":1}`, maxBody+1), status: 413, contains: "bad task: http: request body too large"},
			{name: "worker one byte under the cap", method: "POST", path: "/checkin", body: pad(at(worker, n.home, 0), maxBody-1), status: 400, contains: "arrival index"},
			{name: "malformed worker", method: "POST", path: "/checkin", body: `{"index":`, status: 400, contains: "bad worker"},
			{name: "malformed batch", method: "POST", path: "/checkin/batch", body: `[1,2`, status: 400, contains: "bad batch"},
			{name: "malformed task", method: "POST", path: "/tasks", body: `{"x":"east"}`, status: 400, contains: "bad task"},
			{name: "non-positive worker index", method: "POST", path: "/checkin", body: at(worker, n.home, 0), status: 400, contains: "arrival index"},
			{name: "non-numeric task id", method: "DELETE", path: "/tasks/seven", status: 400, contains: "bad task id"},
			{name: "unknown retire", method: "DELETE", path: fmt.Sprintf("/tasks/%d", n.unknown), status: 404, contains: "unknown task"},
			{name: "bad since", method: "GET", path: "/events?since=yesterday", status: 400, contains: "bad since"},
			{name: "check-in", method: "POST", path: "/checkin", body: at(worker, n.home, 1), status: 200, contains: `"worker":1`},
			{name: "check-in elsewhere", method: "POST", path: "/checkin", body: at(worker, n.abroad, 2), status: 200, clusterOnly: 421, contains: `"worker":2`},
			{name: "batch elsewhere", method: "POST", path: "/checkin/batch",
				body:   `{"workers":[` + at(worker, n.home, 3) + `,` + at(worker, n.abroad, 4) + `]}`,
				status: 200, clusterOnly: 421, contains: `"receipts"`},
			{name: "post elsewhere", method: "POST", path: "/tasks",
				body:   fmt.Sprintf(`{"x":%g,"y":%g}`, n.abroad.Loc.X, n.abroad.Loc.Y),
				status: 200, clusterOnly: 421, contains: `"id"`},
			{name: "stats", method: "GET", path: "/stats", status: 200, contains: `"shard_stats"`},
		}
		// Retire everything the node owns (plus the post above, on the
		// gateway that accepted it): the platform completes, and the next
		// check-in bounces with a 200.
		retire := append([]int(nil), n.tasks...)
		if n.name == "gateway" {
			retire = append(retire, len(n.tasks))
		}
		for _, id := range retire {
			cases = append(cases, wireCase{name: fmt.Sprintf("retire %d", id), method: "DELETE", path: fmt.Sprintf("/tasks/%d", id), status: 204})
		}
		cases = append(cases,
			wireCase{name: "done bounce", method: "POST", path: "/checkin", body: at(worker, n.home, 5), status: 200, contains: `"bounced":true`},
			wireCase{name: "done batch", method: "POST", path: "/checkin/batch", body: `{"workers":[` + at(worker, n.home, 6) + `]}`, status: 200, contains: `"done":true`},
		)
		for _, tc := range cases {
			req, err := http.NewRequest(tc.method, n.url+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			want, contains := tc.status, tc.contains
			if tc.clusterOnly != 0 && n.name == "cluster-node" {
				want, contains = tc.clusterOnly, `"owner":`
			}
			if resp.StatusCode != want || !strings.Contains(string(body), contains) {
				t.Errorf("%s, %s: %s %s → HTTP %d %q, want %d containing %q",
					n.name, tc.name, tc.method, tc.path, resp.StatusCode, body, want, contains)
			}
		}
	}
}
