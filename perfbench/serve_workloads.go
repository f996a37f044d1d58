package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"coral"
)

// phase is one measured stretch of a workload.
type phase struct {
	lat      []float64    // query latency, ms, from the due time
	loadLat  []float64    // load latency, ms, from the due time
	late     []float64    // generator lateness, ms
	selfMS   []float64    // client round trip minus the server's evaluation time
	fenceMS  [2][]float64 // selfMS of live queries: [0] beside no load, [1] overlapping one
	done     int
	attempts int
	failed   int
	failures []string
	wall     time.Duration
	cpu      time.Duration // process CPU
	qps      float64
	// cpuPerOpMS is process CPU per completed operation.
	cpuPerOpMS float64
	// heapMB is the median over one-second windows of the peak heap.
	heapMB   float64
	rt0, rt1 runtimeSample
}

// measure brackets f with the CPU, GC and heap counters a phase reports.
func measure(p *phase, f func()) {
	settle()
	h := startHeapSampler()
	p.rt0 = readRuntime()
	c0, t0 := cpuTime(), time.Now()
	f()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	p.rt1 = readRuntime()
	p.heapMB = h.Stop()
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// setupTree consults the served hierarchy and runs the first (cold) query
// of each read class through a session, as the server would.
func setupTree(sz sizes) (*coral.System, time.Duration, error) {
	t0 := time.Now()
	sys := coral.New()
	if _, err := sys.Consult(sz.treeProgram()); err != nil {
		return nil, 0, fmt.Errorf("consult: %w", err)
	}
	for c := range readClasses {
		if _, err := sys.NewSession().Query(context.Background(), readQuery(c, sz.coldKey())); err != nil {
			return nil, 0, fmt.Errorf("cold query: %w", err)
		}
	}
	return sys, time.Since(t0), nil
}

// pointSchedule is serve_point's open loop: Poisson arrivals at pointRate,
// an even mix of edge(k, X) and tc(k, X) with k uniform over all nodes.
func pointSchedule(sz sizes, seed int64, seconds float64) []*op {
	r := rand.New(rand.NewSource(seed))
	kc := newKeyCycle(rand.New(rand.NewSource(seed+1)), len(readClasses), sz.fanout, sz.depth)
	var ops []*op
	for t := r.Float64() / sz.pointRate; t < seconds; t += 1 / sz.pointRate {
		c, k := kc.next()
		ops = append(ops, &op{Due: time.Duration(t * float64(time.Second)), Class: readClasses[c], Text: readQuery(c, k), After: -1})
	}
	return ops
}

// loadSchedule is serve_load's open loop at loadRate. Lane 0 carries the
// snapshot-session queries and the loads, lane 1 the live queries; a
// share of live queries call a rule module an earlier load installed.
// Each load comes with a live query due at the same instant.
func loadSchedule(sz sizes, seed int64, seconds float64) []*op {
	r := rand.New(rand.NewSource(seed))
	kc := newKeyCycle(rand.New(rand.NewSource(seed+1)), len(readClasses), sz.fanout, sz.depth)
	lr := rand.New(rand.NewSource(seed + 2))
	nextID := 1_000_000
	var ops []*op
	var modules []int // load indexes that install a module
	loads := 0
	for t := r.Float64() / sz.loadRate; t < seconds; t += 1 / sz.loadRate {
		due := time.Duration(t * float64(time.Second))
		switch u := r.Float64(); {
		case u < sz.loadShare:
			withModule := (loads+1)%sz.moduleEvery == 0
			text := loadProgram(lr, loads, sz.batch, sz.treeNodes(), &nextID, withModule)
			if withModule {
				modules = append(modules, loads)
			}
			ops = append(ops, &op{Due: due, Load: true, Class: "load", Text: text, Lane: 0, After: -1, LoadIdx: loads})
			loads++
			// A live read falls due with every load, so the epoch fence
			// always has a reader to drain or to hold back.
			c, k := kc.next()
			ops = append(ops, &op{Due: due, Class: readClasses[c], Text: readQuery(c, k), Lane: 1, After: -1})
		case u < sz.loadShare+(1-sz.loadShare)/2:
			c, k := kc.next()
			ops = append(ops, &op{Due: due, Class: readClasses[c], Text: readQuery(c, k), Lane: 0, Snapshot: true, After: -1})
		default:
			if len(modules) > 0 && r.Float64() < sz.ruleShare {
				m := modules[r.Intn(len(modules))]
				ops = append(ops, &op{Due: due, Class: "rule", Text: fmt.Sprintf("r%d(%d, X)", m, r.Intn(sz.treeNodes())), Lane: 1, After: m})
				continue
			}
			c, k := kc.next()
			ops = append(ops, &op{Due: due, Class: readClasses[c], Text: readQuery(c, k), Lane: 1, After: -1})
		}
	}
	return ops
}

// runOpenPhase serves sys on loopback and drives ops through it.
func runOpenPhase(ctx context.Context, sys *coral.System, ops []*op, lanes int, workers []int, snapshot bool, tr *tracer) (*phase, []outcome, error) {
	srv, err := startServer(sys, tr)
	if err != nil {
		return nil, nil, err
	}
	defer srv.close()
	p := &phase{}
	ol := &openLoop{base: srv.base, ops: ops, lanes: lanes, workers: workers, tr: tr,
		keepRows: func(o *op) bool { return o.Lane == 1 }}
	if snapshot {
		c := newClient(srv.base, nil)
		id, err := c.openSnapshot(ctx)
		c.close()
		if err != nil {
			return nil, nil, fmt.Errorf("open snapshot session: %w", err)
		}
		ol.session = id
	}
	var out []outcome
	measure(p, func() { out = ol.run(ctx) })
	// Loads in flight, for the fence comparison: a live query overlapped a
	// load when their send-to-reply intervals intersect.
	var loadSpans [][2]time.Duration
	for i, o := range ops {
		if o.Load && out[i].Err == "" {
			loadSpans = append(loadSpans, [2]time.Duration{out[i].Sent, out[i].Done})
		}
	}
	for i, o := range ops {
		res := out[i]
		p.attempts++
		if res.Err != "" {
			p.fail("%s: %s", o.Text, res.Err)
			continue
		}
		p.done++
		l := ms(res.Done - o.Due)
		if o.Load {
			p.loadLat = append(p.loadLat, l)
			continue
		}
		p.lat = append(p.lat, l)
		self := ms(res.Done-res.Sent) - float64(res.ElapsedUS)/1000
		p.selfMS = append(p.selfMS, self)
		if o.Lane == 1 && len(loadSpans) > 0 {
			overlap := 0
			for _, ls := range loadSpans {
				if res.Sent < ls[1] && ls[0] < res.Done {
					overlap = 1
					break
				}
			}
			p.fenceMS[overlap] = append(p.fenceMS[overlap], self)
		}
	}
	p.late = lateness(out, ops)
	p.qps = float64(p.done) / p.wall.Seconds()
	p.cpuPerOpMS = ms(p.cpu) / float64(p.done)
	return p, out, nil
}

// checkExact compares every query answer with the reference, as digests.
func checkExact(p *phase, ref *reference, ops []*op, out []outcome) error {
	for i, o := range ops {
		if o.Load || out[i].Err != "" {
			continue
		}
		want, err := ref.answer(o.Text)
		if err != nil {
			return err
		}
		if got := out[i].Digest; got != want.digest() {
			p.fail("%s: %d answers, want %d", o.Text, got.N, len(want))
		}
	}
	return nil
}

// checkBracketed replays the loads on the reference in order. A snapshot
// query must equal the pre-load reference; a live query must contain the
// answer as of the last load acknowledged before it was sent, and lie
// within the answer that includes every load sent before its reply came.
// This holds because every load is monotone: facts and positive rules.
func checkBracketed(p *phase, ref *reference, ops []*op, out []outcome) error {
	var loads []string
	type need struct {
		op    int
		lower bool // check ref ⊆ answer; otherwise answer ⊆ ref (or equality)
	}
	needs := make(map[int][]need)
	for i, o := range ops {
		if o.Load {
			loads = append(loads, o.Text)
			continue
		}
		if out[i].Err != "" {
			continue
		}
		if o.Snapshot {
			needs[0] = append(needs[0], need{op: i})
			continue
		}
		needs[out[i].Acked] = append(needs[out[i].Acked], need{op: i, lower: true})
		needs[out[i].SentLoads] = append(needs[out[i].SentLoads], need{op: i})
	}
	bad := make(map[int]bool)
	for state := 0; state <= len(loads); state++ {
		if state > 0 {
			if err := ref.load(loads[state-1]); err != nil {
				return err
			}
		}
		for _, n := range needs[state] {
			o, res := ops[n.op], out[n.op]
			want, err := ref.answer(o.Text)
			if err != nil {
				return err
			}
			var ok bool
			switch {
			case o.Snapshot:
				ok = res.Digest == want.digest()
			case n.lower:
				ok = want.subset(setOf(res.Rows))
			default:
				ok = setOf(res.Rows).subset(want)
			}
			if !ok && !bad[n.op] {
				bad[n.op] = true
				p.fail("%s (snapshot=%v, loads acked %d, sent %d): %d answers outside the reference bracket",
					o.Text, o.Snapshot, res.Acked, res.SentLoads, res.Digest.N)
			}
		}
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }
