package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerBoundsConnections pins the connection bounds: without a
// header timeout a client trickling headers holds its connection and
// goroutine forever, and without an idle timeout so does a parked
// keep-alive connection.
func TestHTTPServerBoundsConnections(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server addr/handler = %q/%v, want :0/the given mux", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
}
