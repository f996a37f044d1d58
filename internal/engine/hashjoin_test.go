package engine

import (
	"errors"
	"runtime"
	"testing"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// hashRun loads src with hash joins forced on or off and returns the
// answers of pred/arity in evaluation order. Order matters: the hash
// access path serves probe candidates in ascending entry order over the
// same ordinal range nested loops would scan, so on and off must agree
// byte for byte, not just as sets.
func hashRun(t *testing.T, src, pred string, arity int, hash bool) []string {
	t.Helper()
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sys.noHashJoins = !hash
	return answersInOrder(t, sys, pred, arity)
}

// TestHashJoinDifferentialRandom is the hash-join differential property
// test: on seeded random mutually recursive programs — across fixpoint
// strategies, with and without magic rewriting — turning hash joins on
// must not change a single answer or its position. CI runs this package
// under -race -cpu=1,4.
func TestHashJoinDifferentialRandom(t *testing.T) {
	strategies := []string{"", "@psn.\n", "@naive.\n"}
	for seed := int64(0); seed < 8; seed++ {
		facts := workload.RandomGraph(10, 25, seed)
		for _, strat := range strategies {
			for _, rewrite := range []string{"@rewrite none.\n", ""} {
				src := facts + workload.RandomDatalogModule(seed, rewrite+strat)
				base := hashRun(t, src, "p0", 2, false)
				if len(base) == 0 {
					t.Fatalf("seed %d %q: differential program produced no answers", seed, rewrite+strat)
				}
				if got := hashRun(t, src, "p0", 2, true); !sameStrings(base, got) {
					t.Errorf("seed %d %q: hash joins changed the answers\noff: %v\non:  %v",
						seed, rewrite+strat, base, got)
				}
			}
		}
	}
}

// TestHashJoinDifferentialOrderedSearch covers the Ordered Search fixpoint:
// hash-marked scans run under the context discipline too.
func TestHashJoinDifferentialOrderedSearch(t *testing.T) {
	src := workload.WinGameMoves(18, 2, 3, 7) + workload.WinModule("@ordered_search.")
	run := func(hash bool) []string {
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatal(err)
		}
		sys.noHashJoins = !hash
		key := ast.PredKey{Name: "win", Arity: 1}
		def, ok := sys.Export(key)
		if !ok {
			t.Fatal("win/1 not exported")
		}
		it, err := def.Call(key, []term.Term{term.Atom("p0")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for {
			f, ok := it.Next()
			if !ok {
				return out
			}
			out = append(out, f.String())
		}
	}
	base := run(false)
	if got := run(true); !sameStrings(base, got) {
		t.Errorf("hash joins changed the Ordered Search answers\noff: %v\non:  %v", base, got)
	}
}

// TestHashJoinDifferentialPipelined covers the pipelined evaluator: the
// hook must be a no-op there (pipelining is tuple-at-a-time top-down),
// and in particular must not disturb its answers.
func TestHashJoinDifferentialPipelined(t *testing.T) {
	src := workload.Chain(24) + workload.TCModule("@pipelining.")
	base := hashRun(t, src, "tc", 2, false)
	if len(base) == 0 {
		t.Fatal("pipelined program produced no answers")
	}
	if got := hashRun(t, src, "tc", 2, true); !sameStrings(base, got) {
		t.Errorf("hash joins changed the pipelined answers\noff: %v\non:  %v", base, got)
	}
}

// hashMeasure runs pred/2 all-free on src and reports the engine counters.
func hashMeasure(t *testing.T, src, pred string, hash bool) RunStats {
	t.Helper()
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	sys.noHashJoins = !hash
	stats, err := sys.MeasureCall(ast.PredKey{Name: pred, Arity: 2},
		[]term.Term{term.NewVar("X"), term.NewVar("Y")})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestPlannerPicksHashJoin is the deterministic CI gate behind
// BenchmarkE21HashJoin: on a dense transitive closure the planner must
// adopt the hash access path (builds and probes both non-zero), keep the
// answers identical, and attempt strictly fewer tuples than nested loops —
// the probe enumerates one bucket instead of the range a bare scan walks.
// @no_indexing keeps the optimizer from planting a persistent argIndex,
// isolating the comparison to nested-loops-vs-hash; build tables are
// transient per-range structures, not indexes, so the annotation does not
// gate them.
func TestPlannerPicksHashJoin(t *testing.T) {
	src := workload.RandomGraph(24, 140, 11) + `
module m.
export tc(ff).
@rewrite none.
@no_indexing.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
	off := hashMeasure(t, src, "tc", false)
	on := hashMeasure(t, src, "tc", true)
	if on.Answers != off.Answers {
		t.Fatalf("hash joins changed the answer count: on %d, off %d", on.Answers, off.Answers)
	}
	if off.HashJoinBuilds != 0 || off.HashJoinProbes != 0 {
		t.Errorf("hash counters non-zero with hash joins off: %+v", off)
	}
	if on.HashJoinBuilds == 0 || on.HashJoinProbes == 0 {
		t.Fatalf("planner never adopted the hash path: %+v", on)
	}
	if on.Attempts >= off.Attempts {
		t.Errorf("hash path did not reduce attempts: %d hashed vs %d nested-loops",
			on.Attempts, off.Attempts)
	}
}

// TestHashJoinAllocs is the deterministic allocation gate behind the sym
// arm of BenchmarkE21HashJoin: on the doubly recursive closure, evaluating
// with hash joins on must allocate no more than nested loops. Each run
// loads a fresh System and drains p/2 all-free under sequential BSN, so
// the count is the benchmark's allocs/op.
func TestHashJoinAllocs(t *testing.T) {
	src := workload.RandomGraph(48, 320, 11) + doubleModule
	allocs := func(hash bool) float64 {
		return testing.AllocsPerRun(2, func() {
			sys, err := LoadSystem(src)
			if err != nil {
				t.Fatal(err)
			}
			sys.noHashJoins = !hash
			if _, err := drainCall(sys, "p", 2, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := allocs(false), allocs(true)
	t.Logf("allocs per evaluation: %.0f hash on, %.0f hash off", on, off)
	if on > off {
		t.Errorf("hash joins allocate more than nested loops: %.0f on vs %.0f off", on, off)
	}
}

// TestDoublyRecursiveHashDifferential covers a rule with two recursive
// literals: both delta versions run through the planner's hash marks
// (probes counted) and produce byte-identical answers to nested loops.
func TestDoublyRecursiveHashDifferential(t *testing.T) {
	src := workload.RandomGraph(12, 30, 3) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`
	off := hashMeasure(t, src, "p", false)
	on := hashMeasure(t, src, "p", true)
	if on.Answers != off.Answers {
		t.Fatalf("hash joins changed the answer count: on %d, off %d", on.Answers, off.Answers)
	}
	if on.HashJoinProbes == 0 {
		t.Fatal("doubly recursive rule never took a hash path")
	}
	base := hashRun(t, src, "p", 2, false)
	if got := hashRun(t, src, "p", 2, true); !sameStrings(base, got) {
		t.Errorf("hash joins changed the answers\noff: %v\non:  %v", base, got)
	}
}

// TestHashJoinChurnDifferential drives the delete-heavy shape the stats
// fixes target: an aggregate selection displaces facts mid-evaluation, so
// build tables must be invalidated by the mutation counter rather than
// reused stale. Aggregated relations are excluded from hash access paths;
// this pins that the exclusion (not luck) keeps answers identical.
func TestHashJoinChurnDifferential(t *testing.T) {
	src := workload.WeightedGraph(10, 30, 8, 5) + `
module m.
export best(ff).
@rewrite none.
@aggregate_selection dist(X, C) (X) min(C).
dist(Y, C) :- edge(X, Y, C).
dist(Y, C) :- dist(X, C1), edge(X, Y, C2), C = C1 + C2, C < 40.
best(X, C) :- dist(X, C).
end_module.
`
	base := hashRun(t, src, "best", 2, false)
	if len(base) == 0 {
		t.Fatal("aggregate-selection program produced no answers")
	}
	if got := hashRun(t, src, "best", 2, true); !sameStrings(base, got) {
		t.Errorf("hash joins changed the aggregate-selection answers\noff: %v\non:  %v", base, got)
	}
}

// TestHashJoinBudgetAbort aborts evaluations mid-hash-join — during table
// builds (poll per fact) and during head inserts (fact budget) — and
// checks the abort is a clean *AbortError, no goroutine outlives it, and
// the System recovers to byte-identical answers once the budget is lifted.
func TestHashJoinBudgetAbort(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	src := workload.RandomGraph(12, 36, 5) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`
	fresh, err := LoadSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainCall(fresh, "p", 2, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	base := runtime.NumGoroutine()
	aborts := 0
	for k := 1; k <= 25; k += 3 {
		for _, inject := range []string{"ctx", "facts"} {
			sys, err := LoadSystem(src)
			if err != nil {
				t.Fatal(err)
			}
			switch inject {
			case "ctx":
				sys.Ctx = &countdownCtx{left: int64(k)}
			case "facts":
				sys.Budget = Budget{MaxFacts: k}
			}
			got, err := drainCall(sys, "p", 2, nil)
			if err != nil {
				var ab *AbortError
				if !errors.As(err, &ab) {
					t.Fatalf("%s k=%d: abort is not *AbortError: %v", inject, k, err)
				}
				aborts++
			} else if !sameStrings(got, want) {
				t.Fatalf("%s k=%d: uncanceled run diverged", inject, k)
			}
			sys.Ctx = nil
			sys.Budget = Budget{}
			rerun, err := drainCall(sys, "p", 2, nil)
			if err != nil {
				t.Fatalf("%s k=%d: re-run after abort failed: %v", inject, k, err)
			}
			if !sameStrings(rerun, want) {
				t.Fatalf("%s k=%d: re-run diverges from fresh System", inject, k)
			}
		}
	}
	if aborts == 0 {
		t.Fatal("sweep never tripped an abort through the hash path")
	}
	assertNoGoroutineLeak(t, base)
}

// TestWritableUnwrapRefusesPrefix: hashRelOfWritable is the accessor index
// creation (ensurePlanIndexes) goes through, and it must never unwrap a
// snapshot view down to the writable relation underneath — a MakeIndex
// through a Prefix would mutate state every pinned session reads.
// Regression for the plan-index path that previously unwrapped via
// hashRelOf and relied solely on the sharedRO ownership gate.
func TestWritableUnwrapRefusesPrefix(t *testing.T) {
	hr := relationForUnwrapTest(t)
	if got := hashRelOf(hr.PrefixView()); got != hr {
		t.Fatalf("hashRelOf must still unwrap a Prefix for read paths, got %v", got)
	}
	if got := hashRelOfWritable(hr.PrefixView()); got != nil {
		t.Fatalf("hashRelOfWritable unwrapped a snapshot Prefix to %v; writes could tear pinned sessions", got)
	}
	if got := hashRelOfWritable(hr); got != hr {
		t.Fatal("hashRelOfWritable must pass a plain HashRelation through")
	}
	if got := hashRelOfWritable(relSource{r: hr}); got != hr {
		t.Fatal("hashRelOfWritable must pass a relSource-wrapped HashRelation through")
	}
}

// relationForUnwrapTest builds a small relation with a couple of facts so
// Prefix views over it are non-trivial.
func relationForUnwrapTest(t *testing.T) *relation.HashRelation {
	t.Helper()
	hr := relation.NewHashRelation("e", 2)
	for i := 0; i < 3; i++ {
		hr.Insert(relation.NewFact([]term.Term{term.Int(i), term.Int(i + 1)}, nil))
	}
	return hr
}
