package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"coral"
)

// config is one invocation's settings.
type config struct {
	sz       sizes
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// ladder adds serve_point's slo_qps ladder (the all-workloads run).
	ladder bool
	// wrong names a query (serve workloads) or class (closure_batch) whose
	// reference answer is corrupted: the self-test's injected fault.
	wrong string
}

// result is what one workload run reports.
type result struct {
	traced            bool
	attempted, failed int
	e2e, layer        map[string]float64
	details           []string
	seq               []string       // the operation sequence
	counters          map[string]int // engine counters of the traced sweep
}

func (r *result) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

func runWorkload(ctx context.Context, name string, cfg config) (*result, error) {
	switch name {
	case "serve_point":
		return runServePoint(ctx, cfg)
	case "closure_batch":
		return runClosureBatch(ctx, cfg)
	case "serve_load":
		return runServeLoad(ctx, cfg)
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// timedSetups runs setup reps times and returns the median seconds and the
// last set-up state.
func timedSetups[T any](reps int, setup func() (T, time.Duration, error)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < reps; i++ {
		settle()
		v, d, err := setup()
		if err != nil {
			return last, 0, err
		}
		last = v
		ds = append(ds, d.Seconds())
	}
	return last, median(ds), nil
}

// account adds a phase's operations and failures to the result.
func (r *result) account(p *phase) {
	r.attempted += p.attempts
	r.failed += p.failed
	for _, f := range p.failures {
		r.detail("FAILED %s", f)
	}
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func (r *result) endToEnd(p *phase, setupS float64) {
	t := tailOf(p.lat)
	r.e2e = map[string]float64{
		"setup_s":         setupS,
		"qps":             p.qps,
		"latency_p50_ms":  median(p.lat),
		"latency_tail_ms": t.Value,
		"cpu_ms_per_op":   p.cpuPerOpMS,
		"peak_heap_mb":    p.heapMB,
	}
	r.detail("latency_tail_ms = %.4f ms (p%g of %d samples, %d beyond)", t.Value, t.Pct, t.Samples, t.Beyond)
	r.detail("failed_share %.6f (failed=%d attempted=%d)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if len(p.late) > 0 {
		r.detail("generator_late_p50_ms %.4f ms, generator_late_p99_ms %.4f ms (%d ops sent on a free connection)",
			median(p.late), percentile(p.late, 99), len(p.late))
	}
	if len(p.loadLat) > 0 {
		lt := tailOf(p.loadLat)
		r.detail("load_p50_ms = %.4f ms, load_tail_ms = %.4f ms (p%g of %d loads)", median(p.loadLat), lt.Value, lt.Pct, lt.Samples)
	}
	if len(p.fenceMS[0]) > 0 && len(p.fenceMS[1]) > 0 {
		r.detail("serve.fence_wait_ms = %.4f ms (self time of %d live queries overlapping a load minus that of %d others)",
			median(p.fenceMS[1])-median(p.fenceMS[0]), len(p.fenceMS[1]), len(p.fenceMS[0]))
	}
	if len(p.selfMS) > 0 {
		r.detail("serve.self_ms under load = %.4f ms (median over %d queries)", median(p.selfMS), len(p.selfMS))
	}
}

// tracedRun derives the traced run's metrics from its untraced and traced
// phases and the layer sweep, and writes the spans out.
func (r *result) tracedRun(cfg config, name string, plain, traced *phase, sw *sweepResult, tr *tracer) error {
	r.traced = true
	r.layer = sw.metrics
	r.details = append(r.details, sw.details...)
	r.counters = sw.counters
	r.layer["trace.overhead_ms"] = median(traced.lat) - median(plain.lat)
	r.detail("trace.overhead_ms base: traced latency_p50_ms %.4f minus untraced %.4f", median(traced.lat), median(plain.lat))
	ops := plain.done + traced.done
	gc := plain.rt1.gcCPU - plain.rt0.gcCPU + traced.rt1.gcCPU - traced.rt0.gcCPU
	tot := plain.rt1.totalCPU - plain.rt0.totalCPU + traced.rt1.totalCPU - traced.rt0.totalCPU
	cycles := plain.rt1.gcCycles - plain.rt0.gcCycles + traced.rt1.gcCycles - traced.rt0.gcCycles
	r.layer["runtime.gc_cpu_share"] = ratio(gc, tot)
	r.layer["runtime.gc_cycles_per_op"] = ratio(float64(cycles), float64(ops))
	r.detail("runtime base: gc_cpu=%.4fs of %.4fs, gc_cycles=%d over %d ops", gc, tot, cycles, ops)
	spans := tr.snapshot()
	r.detail("span self times: %s", spanSummary(spans))
	path, err := writeSpans(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed), spans)
	if err != nil {
		return err
	}
	r.detail("spans written to %s", path)
	return nil
}

func sampleKeys(seed int64, n, nodes int) []int {
	r := rand.New(rand.NewSource(seed + 3))
	if n > nodes {
		n = nodes
	}
	return r.Perm(nodes)[:n]
}

func treeClasses(sz sizes, keys []int) []sweepClass {
	var edge, tc []string
	for _, k := range keys {
		edge = append(edge, readQuery(0, k))
		tc = append(tc, readQuery(1, k))
	}
	return []sweepClass{
		{name: "edge", queries: edge},
		{name: "tc", queries: tc, cold: true},
		// The fixed probe of the unindexed-scan waste on a bound query.
		{name: "tc5", queries: []string{readQuery(1, 5)}},
	}
}

func runServePoint(ctx context.Context, cfg config) (*result, error) {
	sz := cfg.sz
	r := &result{}
	sys, setupS, err := timedSetups(sz.setupReps, func() (*coral.System, time.Duration, error) { return setupTree(sz) })
	if err != nil {
		return nil, err
	}
	ref, err := newReference(sz.treeProgram(), true)
	if err != nil {
		return nil, err
	}
	ref.wrong = cfg.wrong
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	ops := pointSchedule(sz, cfg.seed, seconds)
	for _, o := range ops {
		r.seq = append(r.seq, o.Text)
	}
	workers := []int{nproc()}
	p, out, err := runOpenPhase(ctx, sys, ops, 1, workers, false, nil)
	if err != nil {
		return nil, err
	}
	if err := checkExact(p, ref, ops, out); err != nil {
		return nil, err
	}
	r.account(p)
	r.endToEnd(p, setupS)
	if cfg.ladder {
		if err := r.sloLadder(ctx, cfg, sys, ref); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		return r, nil
	}
	tr := newTracer()
	tp, tout, err := runOpenPhase(ctx, sys, ops, 1, workers, false, tr)
	if err != nil {
		return nil, err
	}
	if err := checkExact(tp, ref, ops, tout); err != nil {
		return nil, err
	}
	r.account(tp)
	keys := sampleKeys(cfg.seed, sz.sampleKeys, sz.treeNodes())
	sw, err := sweep(ctx, sweepInput{
		programs: []string{sz.treeProgram()},
		systems:  []*coral.System{sys},
		classes:  treeClasses(sz, keys),
		bases:    []baseRel{{name: "edge", arity: 2, keys: keys}},
	}, tr)
	if err != nil {
		return nil, err
	}
	return r, r.tracedRun(cfg, "serve_point", p, tp, sw, tr)
}

// sloLadder runs serve_point at each rate of the ladder and reports the
// highest rate (climbing from the bottom) whose tail latency stays within
// the limit with no growing backlog: the last quarter's median latency
// also stays within the limit.
func (r *result) sloLadder(ctx context.Context, cfg config, sys *coral.System, ref *reference) error {
	sz := cfg.sz
	step := cfg.seconds / float64(len(sz.ladder))
	if step < 5 {
		step = 5
	}
	slo := 0.0
	for _, rate := range sz.ladder {
		lsz := sz
		lsz.pointRate = rate
		ops := pointSchedule(lsz, cfg.seed, step)
		p, out, err := runOpenPhase(ctx, sys, ops, 1, []int{nproc()}, false, nil)
		if err != nil {
			return err
		}
		if err := checkExact(p, ref, ops, out); err != nil {
			return err
		}
		r.account(p)
		t := tailOf(p.lat)
		lastQ := median(p.lat[len(p.lat)*3/4:])
		ok := p.failed == 0 && t.Value <= sz.sloMS && lastQ <= sz.sloMS
		r.detail("ladder rate=%g/s achieved=%.1f/s latency_p50_ms=%.4f latency_tail_ms=%.4f (p%g of %d) last_quarter_p50_ms=%.4f within_limit=%v",
			rate, float64(p.done)/p.wall.Seconds(), median(p.lat), t.Value, t.Pct, t.Samples, lastQ, ok)
		if !ok {
			break
		}
		slo = rate
	}
	r.detail("slo_qps = %g 1/s (tail latency limit %g ms)", slo, sz.sloMS)
	return nil
}

func runServeLoad(ctx context.Context, cfg config) (*result, error) {
	sz := cfg.sz
	r := &result{}
	sys, setupS, err := timedSetups(sz.setupReps, func() (*coral.System, time.Duration, error) { return setupTree(sz) })
	if err != nil {
		return nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	ops := loadSchedule(sz, cfg.seed, seconds)
	for _, o := range ops {
		r.seq = append(r.seq, o.Text)
	}
	phaseOn := func(sys *coral.System, tr *tracer) (*phase, error) {
		p, out, err := runOpenPhase(ctx, sys, ops, 2, []int{1, 1}, true, tr)
		if err != nil {
			return nil, err
		}
		ref, err := newReference(sz.treeProgram(), true)
		if err != nil {
			return nil, err
		}
		ref.wrong = cfg.wrong
		if err := checkBracketed(p, ref, ops, out); err != nil {
			return nil, err
		}
		r.account(p)
		return p, nil
	}
	p, err := phaseOn(sys, nil)
	if err != nil {
		return nil, err
	}
	r.endToEnd(p, setupS)
	if !cfg.trace {
		return r, nil
	}
	// The traced phase starts again from the unloaded hierarchy.
	sys, _, err = setupTree(sz)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := phaseOn(sys, tr)
	if err != nil {
		return nil, err
	}
	keys := sampleKeys(cfg.seed, sz.sampleKeys, sz.treeNodes())
	classes := treeClasses(sz, keys)
	var loads, rules []string
	for _, o := range ops {
		if o.Load {
			loads = append(loads, o.Text)
		} else if o.Class == "rule" && len(rules) < sz.sampleKeys {
			rules = append(rules, o.Text)
		}
	}
	if len(rules) > 0 {
		classes = append(classes, sweepClass{name: "rule", queries: rules})
	}
	sw, err := sweep(ctx, sweepInput{
		programs: []string{sz.treeProgram()},
		systems:  []*coral.System{sys},
		classes:  classes,
		bases:    []baseRel{{name: "edge", arity: 2, keys: keys}},
		loads:    loads,
	}, tr)
	if err != nil {
		return nil, err
	}
	return r, r.tracedRun(cfg, "serve_load", p, tp, sw, tr)
}

func runClosureBatch(ctx context.Context, cfg config) (*result, error) {
	sz := cfg.sz
	r := &result{}
	systems, setupS, err := timedSetups(sz.closureSetupReps, func() ([]*coral.System, time.Duration, error) { return setupClosure(sz) })
	if err != nil {
		return nil, err
	}
	refs, err := closureRefs(sz, cfg.wrong)
	if err != nil {
		return nil, err
	}
	order := closureOrder(sz, cfg.seed)
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	p := runClosurePhase(ctx, sz, systems, order, refs, seconds, nil, &r.seq)
	r.account(p)
	r.endToEnd(p, setupS)
	if !cfg.trace {
		return r, nil
	}
	tr := newTracer()
	tp := runClosurePhase(ctx, sz, systems, order, refs, seconds, tr, nil)
	r.account(tp)
	in := sweepInput{systems: systems}
	for i, c := range sz.closure {
		in.programs = append(in.programs, c.program)
		in.classes = append(in.classes, sweepClass{name: c.name, prog: i, queries: []string{c.query}, cold: true})
		in.bases = append(in.bases, baseRel{name: c.base, arity: c.arity, keys: sampleKeys(cfg.seed+int64(i), sz.sampleKeys, c.nodes)})
	}
	sw, err := sweep(ctx, in, tr)
	if err != nil {
		return nil, err
	}
	return r, r.tracedRun(cfg, "closure_batch", p, tp, sw, tr)
}
