package main

import (
	"net/http"
	"testing"
)

// TestNewServerTimeouts: the gateway bounds slow request headers and idle
// keep-alive connections, and leaves whole-request timeouts off — GET /events
// streams for as long as its subscriber stays.
func TestNewServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Fatalf("server built for %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: either would cut an open event stream", srv.ReadTimeout, srv.WriteTimeout)
	}
}

func TestBuildInstancePresets(t *testing.T) {
	in, err := buildInstance("", 0.01, 0.14, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) == 0 || in.Epsilon != 0.14 || in.K != 4 {
		t.Fatalf("synthetic instance: %d tasks, ε=%v, K=%d", len(in.Tasks), in.Epsilon, in.K)
	}
	city, err := buildInstance("newyork", 0.002, 0.10, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(city.Tasks) == 0 {
		t.Fatal("city instance has no tasks")
	}
	if _, err := buildInstance("atlantis", 0.01, 0.10, 6, 9); err == nil {
		t.Fatal("unknown city accepted")
	}
}
