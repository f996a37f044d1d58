// Command corald is the coral data server: it loads .crl programs once at
// startup, then serves queries over HTTP (JSON over POST) to many
// concurrent clients against the shared relations — the data-server
// architecture of the paper's §2 as a network service.
//
// Usage:
//
//	corald [-addr :7690] [-timeout 10s] [-max-facts N] [-max-iters N]
//	       [-query-timeout 30s] program.crl ...
//
// Endpoints (see internal/serve):
//
//	POST   /query         {"query": "path(a, X)", "session": "s1"}
//	POST   /load          {"program": "edge(c, d)."}
//	POST   /session       {"snapshot": true, "timeout_ms": 5000}
//	DELETE /session/{id}
//	GET    /healthz
//	GET    /stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coral"
	"coral/internal/serve"
)

// Connection bounds: a client that trickles its request headers, or parks
// an idle keep-alive connection, holds a connection and a goroutine only
// this long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the listening server with the connection bounds set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":7690", "listen address")
	timeout := flag.Duration("timeout", 0, "default per-query evaluation budget (0 = unlimited)")
	maxFacts := flag.Int("max-facts", 0, "default per-query derived-fact budget (0 = unlimited)")
	maxIters := flag.Int("max-iters", 0, "default per-query iteration budget (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0, "hard per-request wall-clock cap via context (0 = none)")
	flag.Parse()

	sys := coral.New()
	for _, path := range flag.Args() {
		if _, err := sys.ConsultFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "corald: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "corald: loaded %s\n", path)
	}

	srv := serve.New(sys, serve.Options{
		DefaultBudget: coral.Budget{
			Timeout:       *timeout,
			MaxFacts:      *maxFacts,
			MaxIterations: *maxIters,
		},
		QueryTimeout: *queryTimeout,
	})
	httpSrv := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "corald: serving on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "corald: %v\n", err)
		os.Exit(1)
	}
}
