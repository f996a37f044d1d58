package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coral"
	"coral/internal/serve"
)

// op is one scheduled operation of an open loop.
type op struct {
	Due   time.Duration // offset from the start of the run
	Load  bool          // a /load request; otherwise a /query
	Class string
	Text  string // query text or load program
	Lane  int    // which connection queue serves it
	// Snapshot runs the query in the run's snapshot session.
	Snapshot bool
	// After, when >= 0, is the index of the load that installs the module
	// this query calls: the query is not sent before that load is
	// acknowledged.
	After int
	// LoadIdx numbers loads in schedule order.
	LoadIdx int
}

// outcome is what happened to one op.
type outcome struct {
	Sent, Done time.Duration // offsets from the start of the run
	Idle       bool          // the connection was free when the op fell due
	Err        string
	Digest     digest
	Rows       [][]string // kept for queries that are checked against bounds
	ElapsedUS  int64      // the server's evaluation time
	// Acked counts loads acknowledged before the op was sent; Sent counts
	// loads sent before its reply arrived.
	Acked, SentLoads int
}

// server is the in-process corald handler on a loopback listener.
type server struct {
	http *http.Server
	base string
	done chan struct{}
}

const (
	hdrSpan    = "X-Perfbench-Span"
	hdrReq     = "X-Perfbench-Req"
	hdrHandler = "X-Perfbench-Handler"
)

func startServer(sys *coral.System, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := serve.New(sys, serve.Options{DefaultBudget: coral.Budget{Timeout: 60 * time.Second}}).Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			id := tr.reserve()
			w.Header().Set(hdrHandler, strconv.FormatInt(id, 10))
			start := tr.begin()
			inner.ServeHTTP(w, r)
			tr.record(span{ID: id, Parent: parent, Req: req, Name: "serve.handler", Start: start, End: tr.now()})
		})
	}
	s := &server{http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.http.Close()
	<-s.done
}

// client is one pinned keep-alive connection to the server.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: t, Timeout: 120 * time.Second}, base: base, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one JSON request and returns the body of a 200 reply. With a
// tracer it records the client span and, as its child, the server span.
func (c *client) post(ctx context.Context, path string, req any, name string, reqID int64) (body []byte, handler int64, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := c.tr.reserve()
	if c.tr != nil {
		hr.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		hr.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
	}
	start := c.tr.begin()
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.record(span{ID: id, Req: reqID, Name: name, Start: start, End: c.tr.now()})
		handler, _ = strconv.ParseInt(resp.Header.Get(hdrHandler), 10, 64)
	}
	if err != nil {
		return nil, handler, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, handler, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, handler, nil
}

// query runs one /query and records the server's evaluation as a span
// under the handler span. The client learns only its duration, so the
// span is placed at the request's start; self times use durations only.
func (c *client) query(ctx context.Context, q, session string, reqID int64) (*serve.QueryResponse, int, error) {
	start := c.tr.begin()
	body, handler, err := c.post(ctx, "/query", serve.QueryRequest{Query: q, Session: session}, "client.query", reqID)
	if err != nil {
		return nil, len(body), err
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, len(body), fmt.Errorf("decode: %w", err)
	}
	if c.tr != nil && handler != 0 {
		c.tr.record(span{Parent: handler, Req: reqID, Name: "coral.Session.Query",
			Start: start, End: start + resp.ElapsedUS*1000})
	}
	return &resp, len(body), nil
}

func (c *client) load(ctx context.Context, program string, reqID int64) error {
	_, _, err := c.post(ctx, "/load", serve.LoadRequest{Program: program}, "client.load", reqID)
	return err
}

func (c *client) openSnapshot(ctx context.Context) (string, error) {
	body, _, err := c.post(ctx, "/session", serve.SessionRequest{Snapshot: true}, "client.session", 0)
	if err != nil {
		return "", err
	}
	var resp serve.SessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("decode session: %w", err)
	}
	return resp.Session, nil
}

// openLoop sends ops at their due times over one pinned connection per
// worker and times each from when it was due. Lanes are FIFO queues; each
// lane has its own workers, and a worker takes the lane's next op.
type openLoop struct {
	base     string
	ops      []*op
	lanes    int
	workers  []int // per lane
	session  string
	keepRows func(o *op) bool
	tr       *tracer
}

func (ol *openLoop) run(ctx context.Context) []outcome {
	out := make([]outcome, len(ol.ops))
	queues := make([][]int, ol.lanes)
	nLoads := 0
	for i, o := range ol.ops {
		queues[o.Lane] = append(queues[o.Lane], i)
		if o.Load {
			nLoads++
		}
	}
	acks := make([]chan struct{}, nLoads)
	for i := range acks {
		acks[i] = make(chan struct{})
	}
	var loadsSent, loadsAcked atomic.Int64
	next := make([]atomic.Int64, ol.lanes)

	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < ol.lanes; lane++ {
		for w := 0; w < ol.workers[lane]; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				c := newClient(ol.base, ol.tr)
				defer c.close()
				timer := time.NewTimer(0)
				<-timer.C
				defer timer.Stop()
				for {
					qi := int(next[lane].Add(1) - 1)
					if qi >= len(queues[lane]) {
						return
					}
					i := queues[lane][qi]
					o := ol.ops[i]
					res := &out[i]
					if d := time.Until(start.Add(o.Due)); d > 0 {
						res.Idle = true
						timer.Reset(d)
						select {
						case <-ctx.Done():
							res.Err = ctx.Err().Error()
							return
						case <-timer.C:
						}
					}
					if o.After >= 0 {
						select {
						case <-ctx.Done():
							res.Err = ctx.Err().Error()
							return
						case <-acks[o.After]:
						}
					}
					res.Sent = time.Since(start)
					if o.Load {
						loadsSent.Add(1)
						err := c.load(ctx, o.Text, int64(i+1))
						if err != nil {
							res.Err = err.Error()
						}
						loadsAcked.Add(1)
						close(acks[o.LoadIdx])
						res.Done = time.Since(start)
						continue
					}
					res.Acked = int(loadsAcked.Load())
					session := ""
					if o.Snapshot {
						session = ol.session
					}
					resp, _, err := c.query(ctx, o.Text, session, int64(i+1))
					res.Done = time.Since(start)
					res.SentLoads = int(loadsSent.Load())
					if err != nil {
						res.Err = err.Error()
						continue
					}
					res.ElapsedUS = resp.ElapsedUS
					res.Digest = digestRows(resp.Tuples)
					if ol.keepRows != nil && ol.keepRows(o) {
						res.Rows = resp.Tuples
					}
				}
			}(lane)
		}
	}
	wg.Wait()
	return out
}

// lateness is how late the generator sent the ops that found their
// connection free: timer and scheduling delay, not queueing.
func lateness(out []outcome, ops []*op) []float64 {
	var late []float64
	for i, o := range out {
		if o.Idle && o.Err == "" {
			late = append(late, ms(o.Sent-ops[i].Due))
		}
	}
	return late
}
