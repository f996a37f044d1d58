package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"coral"
	"coral/internal/ast"
	"coral/internal/engine"
	"coral/internal/parser"
	"coral/internal/relation"
)

// The traced run's layer sweep: after the measured phases, the benchmark
// calls each layer's public functions itself on the workload's own
// program, queries and data, with a span around every call, and derives
// the per-layer metrics from those spans and the engine's counters.

// sweepClass is one query class of a workload with the queries the sweep
// evaluates directly.
type sweepClass struct {
	name    string
	prog    int // index into sweepInput.programs/systems
	queries []string
	// cold marks a class whose predicate the setup program's modules
	// export, so its first call compiles an adorned program.
	cold bool
}

// baseRel is the base relation a program's point lookups hit.
type baseRel struct {
	name  string
	arity int
	keys  []int
}

type sweepInput struct {
	programs []string
	systems  []*coral.System // warm, after the measured phases
	classes  []sweepClass
	bases    []baseRel // per program
	loads    []string  // load programs applied during the run
}

// engineCounts sums engine.RunStats over a class's queries.
type engineCounts struct {
	queries, answers                          int
	iterations, derivations, attempts, stored int
	bytecode, hjBuilds, hjProbes, parallel    int
	allocs, allocBytes                        uint64
	viewMS                                    []float64
}

func (e *engineCounts) add(st engine.RunStats) {
	e.queries++
	e.answers += st.Answers
	e.iterations += st.Iterations
	e.derivations += st.Derivations
	e.attempts += st.Attempts
	e.stored += st.FactsStored
	e.bytecode += st.BytecodeRuns
	e.hjBuilds += st.HashJoinBuilds
	e.hjProbes += st.HashJoinProbes
	e.parallel += st.ParallelRounds
}

func (e *engineCounts) merge(o *engineCounts) {
	e.queries += o.queries
	e.answers += o.answers
	e.iterations += o.iterations
	e.derivations += o.derivations
	e.attempts += o.attempts
	e.stored += o.stored
	e.bytecode += o.bytecode
	e.hjBuilds += o.hjBuilds
	e.hjProbes += o.hjProbes
	e.parallel += o.parallel
	e.allocs += o.allocs
	e.allocBytes += o.allocBytes
	e.viewMS = append(e.viewMS, o.viewMS...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sweepResult holds the per-layer metrics, their detail lines, and the
// engine counters (which repeat exactly for a given seed).
type sweepResult struct {
	metrics  map[string]float64
	details  []string
	counters map[string]int
}

func (r *sweepResult) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// timeIt runs f reps times under a span named name and returns the median
// duration in ms.
func timeIt(tr *tracer, name string, reps int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := tr.begin()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, ms(time.Since(t0)))
		tr.finish(name, 0, start)
	}
	return median(ds), nil
}

func sweep(ctx context.Context, in sweepInput, tr *tracer) (*sweepResult, error) {
	res := &sweepResult{metrics: make(map[string]float64), counters: make(map[string]int)}
	m := res.metrics

	// parser: ParseQuery per class query, Parse of every setup program and
	// load batch.
	var qus []float64
	for _, c := range in.classes {
		for _, q := range c.queries {
			d, err := timeIt(tr, "parser.ParseQuery", 9, func() error { _, err := parser.ParseQuery(q); return err })
			if err != nil {
				return nil, err
			}
			qus = append(qus, d*1000)
		}
	}
	m["parser.query_us"] = median(qus)
	var progMS float64
	for _, prog := range in.programs {
		d, err := timeIt(tr, "parser.Parse", 3, func() error { _, err := parser.Parse(prog); return err })
		if err != nil {
			return nil, err
		}
		progMS += d
	}
	m["parser.program_ms"] = progMS
	if len(in.loads) > 0 {
		var lms []float64
		for _, l := range in.loads {
			d, err := timeIt(tr, "parser.Parse", 1, func() error { _, err := parser.Parse(l); return err })
			if err != nil {
				return nil, err
			}
			lms = append(lms, d)
		}
		res.detail("parser.load_batch_ms %.4f ms (median of %d load batches)", median(lms), len(lms))
	}

	// compile: AddModule of every module of every program into a system
	// already holding the program's facts, then the cold-call extra.
	var modMS float64
	for _, prog := range in.programs {
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			u, err := parser.Parse(prog)
			if err != nil {
				return nil, err
			}
			eng := engine.NewSystem()
			for _, f := range u.Facts {
				rel, err := eng.BaseRelation(f.Pred, len(f.Args))
				if err != nil {
					return nil, err
				}
				rel.Insert(relation.NewFact(f.Args, nil))
			}
			start := tr.begin()
			t0 := time.Now()
			for _, mod := range u.Modules {
				if err := eng.AddModule(mod); err != nil {
					return nil, fmt.Errorf("AddModule: %w", err)
				}
			}
			ds = append(ds, ms(time.Since(t0)))
			tr.finish("engine.AddModule", 0, start)
		}
		modMS += median(ds)
	}
	m["compile.module_ms"] = modMS

	var extras []float64
	for rep := 0; rep < 5; rep++ {
		fresh := make([]*coral.System, len(in.programs))
		for i, prog := range in.programs {
			fresh[i] = coral.New()
			if _, err := fresh[i].Consult(prog); err != nil {
				return nil, err
			}
		}
		var extra float64
		for _, c := range in.classes {
			if !c.cold {
				continue
			}
			pq, err := parser.ParseQuery(c.queries[0])
			if err != nil {
				return nil, err
			}
			var d [2]float64
			for k := range d {
				start := tr.begin()
				t0 := time.Now()
				if _, _, _, err := fresh[c.prog].Engine().NewView(nil).Query(pq.Body); err != nil {
					return nil, err
				}
				d[k] = ms(time.Since(t0))
				tr.finish("engine.View.Query", 0, start)
			}
			extra += d[0] - d[1]
		}
		extras = append(extras, extra)
	}
	m["compile.cold_extra_ms"] = median(extras)

	// engine: NewView + View.Query per class query on the warm systems,
	// single caller, with allocation counts around the call.
	total := &engineCounts{}
	for _, c := range in.classes {
		ec := &engineCounts{}
		for _, q := range c.queries {
			pq, err := parser.ParseQuery(q)
			if err != nil {
				return nil, err
			}
			var ds []float64
			for rep := 0; rep < 3; rep++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				start := tr.begin()
				t0 := time.Now()
				_, _, st, err := in.systems[c.prog].Engine().NewView(nil).Query(pq.Body)
				ds = append(ds, ms(time.Since(t0)))
				tr.finish("engine.View.Query", 0, start)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", q, err)
				}
				if rep == 2 {
					ec.add(st)
					ec.allocs += m1.Mallocs - m0.Mallocs
					ec.allocBytes += m1.TotalAlloc - m0.TotalAlloc
				}
			}
			ec.viewMS = append(ec.viewMS, median(ds))
		}
		res.detail("class %s: queries=%d answers=%d engine.view_ms=%.4f ms engine.attempts_per_answer=%.2f (attempts=%d, base answers=%d) derivations=%d iterations=%d facts_stored=%d bytecode_runs=%d hash_join_builds=%d hash_join_probes=%d parallel_rounds=%d",
			c.name, ec.queries, ec.answers, median(ec.viewMS), ratio(float64(ec.attempts), float64(ec.answers)), ec.attempts, ec.answers,
			ec.derivations, ec.iterations, ec.stored, ec.bytecode, ec.hjBuilds, ec.hjProbes, ec.parallel)
		for k, v := range map[string]int{"attempts": ec.attempts, "derivations": ec.derivations, "iterations": ec.iterations,
			"facts_stored": ec.stored, "answers": ec.answers, "bytecode_runs": ec.bytecode,
			"hash_join_builds": ec.hjBuilds, "hash_join_probes": ec.hjProbes} {
			res.counters[c.name+"."+k] = v
		}
		total.merge(ec)
	}
	n := float64(total.queries)
	m["engine.view_ms"] = median(total.viewMS)
	m["engine.iterations"] = float64(total.iterations) / n
	m["engine.derivations"] = float64(total.derivations) / n
	m["engine.attempts"] = float64(total.attempts) / n
	m["engine.facts_stored"] = float64(total.stored) / n
	m["engine.bytecode_runs"] = float64(total.bytecode) / n
	m["engine.hash_join_builds"] = float64(total.hjBuilds) / n
	m["engine.hash_join_probes"] = float64(total.hjProbes) / n
	m["engine.attempts_per_answer"] = ratio(float64(total.attempts), float64(total.answers))
	m["engine.derivations_per_attempt"] = ratio(float64(total.derivations), float64(total.attempts))
	m["engine.dup_share"] = 1 - ratio(float64(total.stored), float64(total.derivations))
	m["engine.parallel_round_share"] = ratio(float64(total.parallel), float64(total.iterations))
	m["engine.allocs_per_query"] = float64(total.allocs) / n
	m["engine.alloc_bytes_per_query"] = float64(total.allocBytes) / n
	res.detail("engine.attempts_per_answer base: answers=%d attempts=%d over %d queries; engine.derivations_per_attempt base: attempts=%d; engine.dup_share base: derivations=%d facts_stored=%d; engine.parallel_round_share base: iterations=%d parallel_rounds=%d",
		total.answers, total.attempts, total.queries, total.attempts, total.derivations, total.stored, total.iterations, total.parallel)

	// relation: point lookups on the warm base relation, inserts on a
	// replica built from the setup facts and the load batches.
	var lus []float64
	rows := 0
	for i, b := range in.bases {
		rel, ok := in.systems[i].LookupRelation(b.name, b.arity)
		if !ok {
			return nil, fmt.Errorf("no base relation %s/%d", b.name, b.arity)
		}
		rows += rel.Len()
		for _, k := range b.keys {
			args := make([]coral.Term, b.arity)
			args[0] = coral.Int(int64(k))
			for j := 1; j < b.arity; j++ {
				args[j] = coral.Wildcard()
			}
			d, err := timeIt(tr, "relation.Lookup", 5, func() error {
				sc := rel.Lookup(args...)
				for {
					if _, ok := sc.Next(); !ok {
						break
					}
				}
				return sc.Err()
			})
			if err != nil {
				return nil, err
			}
			lus = append(lus, d*1000)
		}
	}
	m["relation.lookup_us"] = median(lus)
	m["relation.base_rows"] = float64(rows)

	var facts []ast.Literal
	for _, src := range append(append([]string(nil), in.programs...), in.loads...) {
		u, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		facts = append(facts, u.Facts...)
	}
	var ins []float64
	for rep := 0; rep < 3; rep++ {
		replica := coral.New()
		rels := make(map[string]*coral.Relation)
		start := tr.begin()
		t0 := time.Now()
		for _, f := range facts {
			key := fmt.Sprintf("%s/%d", f.Pred, len(f.Args))
			r, ok := rels[key]
			if !ok {
				var err error
				if r, err = replica.BaseRelation(f.Pred, len(f.Args)); err != nil {
					return nil, err
				}
				rels[key] = r
			}
			r.Insert(f.Args...)
		}
		ins = append(ins, ms(time.Since(t0))*1000/float64(len(facts)))
		tr.finish("relation.Insert", 0, start)
	}
	m["relation.insert_us_per_fact"] = median(ins)
	res.detail("relation.insert_us_per_fact base: facts=%d; relation.lookup_us over %d keys", len(facts), len(lus))

	// serve: a probe server on each warm system. Snapshot session opens,
	// each class query once more over HTTP, and small loads into a probe
	// relation the workload never reads.
	var opens, selfs, loadsMS []float64
	respBytes, answers := 0, 0
	for i, sys := range in.systems {
		srv, err := startServer(sys, tr)
		if err != nil {
			return nil, err
		}
		c := newClient(srv.base, tr)
		err = func() error {
			for k := 0; k < 5; k++ {
				t0 := time.Now()
				if _, err := c.openSnapshot(ctx); err != nil {
					return err
				}
				opens = append(opens, ms(time.Since(t0)))
			}
			for _, cl := range in.classes {
				if cl.prog != i {
					continue
				}
				for _, q := range cl.queries {
					t0 := time.Now()
					resp, nb, err := c.query(ctx, q, "", 0)
					if err != nil {
						return err
					}
					selfs = append(selfs, ms(time.Since(t0))-float64(resp.ElapsedUS)/1000)
					respBytes += nb
					answers += len(resp.Tuples)
				}
			}
			for k := 0; k < 3; k++ {
				var b strings.Builder
				for j := 0; j < 16; j++ {
					fmt.Fprintf(&b, "perfbench_probe(%d, %d).\n", k, j)
				}
				t0 := time.Now()
				if err := c.load(ctx, b.String(), 0); err != nil {
					return err
				}
				loadsMS = append(loadsMS, ms(time.Since(t0)))
			}
			return nil
		}()
		c.close()
		srv.close()
		if err != nil {
			return nil, fmt.Errorf("serve probe: %w", err)
		}
	}
	m["serve.session_open_ms"] = median(opens)
	m["serve.self_ms"] = median(selfs)
	m["serve.resp_bytes_per_answer"] = ratio(float64(respBytes), float64(answers))
	m["serve.load_ms"] = median(loadsMS)
	res.detail("serve.resp_bytes_per_answer base: bytes=%d answers=%d over %d queries", respBytes, answers, len(selfs))
	return res, nil
}

// spanSummary renders the median self time per span name.
func spanSummary(spans []span) string {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.4fms(n=%d)", n, median(st[n]), len(st[n])))
	}
	return strings.Join(parts, " ")
}
