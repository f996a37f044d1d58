package engine

import (
	"sort"
	"testing"

	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/workload"
)

// flowRun loads src with the flow-analysis optimizations forced on or off
// and returns the sorted answers of pred/arity. The setting must be in
// place before AddModule: the per-form programs are compiled and cached
// there, which is where pruning, magic skipping, and planner seeding
// happen.
func flowRun(t *testing.T, src, pred string, arity int, flowOpt bool) []string {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys := NewSystem()
	sys.FlowOptimization = flowOpt
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	for _, m := range u.Modules {
		if err := sys.AddModule(m); err != nil {
			t.Fatalf("add module: %v", err)
		}
	}
	return answersSorted(t, sys, pred, arity)
}

// TestFlowDifferentialRandom is the flow optimizer's differential property
// test: on seeded random mutually recursive programs, rule pruning, magic
// skipping and planner seeding must never change an answer set — with and
// without magic rewriting. The exported p0
// is queried all-free, so the magic-skip path (evaluate the pruned
// original rules directly) is the common case here. CI runs this package
// under -race -cpu=1,4.
func TestFlowDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		facts := workload.RandomGraph(10, 25, seed)
		for _, ann := range []string{"@rewrite none.", ""} {
			src := facts + workload.RandomDatalogModule(seed, ann)
			base := flowRun(t, src, "p0", 2, false)
			if len(base) == 0 {
				t.Fatalf("seed %d ann %q: differential program produced no answers", seed, ann)
			}
			if got := flowRun(t, src, "p0", 2, true); !sameStrings(base, got) {
				t.Errorf("seed %d ann %q: flow optimization changed the answer set\noff: %v\non:  %v",
					seed, ann, base, got)
			}
		}
	}
}

// TestFlowDifferentialBoundQuery covers the bound query form — magic
// rewriting stays on, so this exercises pruning plus the planner's
// magic-literal seeding rather than the skip path.
func TestFlowDifferentialBoundQuery(t *testing.T) {
	src := workload.RandomGraph(12, 30, 7) + `
module m.
export reach(bf).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
dead(X) :- deader(X).
deader(X) :- dead(X).
end_module.
?- reach(0, Y).
`
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	goal := u.Queries[0].Body[0]
	run := func(flowOpt bool) []string {
		sys := NewSystem()
		sys.FlowOptimization = flowOpt
		for _, f := range u.Facts {
			rel, err := sys.BaseRelation(f.Pred, len(f.Args))
			if err != nil {
				t.Fatal(err)
			}
			rel.Insert(relation.NewFact(f.Args, nil))
		}
		for _, m := range u.Modules {
			if err := sys.AddModule(m); err != nil {
				t.Fatalf("add module: %v", err)
			}
		}
		key := goal.Key()
		def, ok := sys.Export(key)
		if !ok {
			t.Fatalf("no module exports %s", key)
		}
		it, err := def.Call(key, goal.Args, nil)
		if err != nil {
			t.Fatalf("call %s: %v", key, err)
		}
		var out []string
		for {
			f, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, f.String())
		}
		sort.Strings(out)
		return out
	}
	base := run(false)
	if len(base) == 0 {
		t.Fatal("bound query produced no answers")
	}
	if got := run(true); !sameStrings(base, got) {
		t.Errorf("flow optimization changed the bound-query answer set\noff: %v\non:  %v", base, got)
	}
}

// TestFlowDifferentialPipelined covers the pipelined evaluator: the
// lazily-enumerated module must produce the same answers with the flow
// optimizations on and off.
func TestFlowDifferentialPipelined(t *testing.T) {
	src := workload.Chain(24) + workload.TCModule("@pipelining.")
	base := flowRun(t, src, "tc", 2, false)
	if len(base) == 0 {
		t.Fatal("pipelined program produced no answers")
	}
	if got := flowRun(t, src, "tc", 2, true); !sameStrings(base, got) {
		t.Errorf("flow optimization changed the pipelined answer set\noff: %v\non:  %v", base, got)
	}
}
