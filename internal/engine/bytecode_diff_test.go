package engine

import (
	"errors"
	"runtime"
	"testing"

	"coral/internal/ast"
	"coral/internal/term"
	"coral/internal/workload"
)

// bcRun loads src with bytecode forced on or off and returns the answers
// of pred/arity in evaluation order. The bytecode machine mirrors the
// nested-loops interpreter frame for frame, so on and off must agree byte
// for byte — same answers, same positions.
func bcRun(t *testing.T, src, pred string, arity int, bc bool) []string {
	t.Helper()
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sys.noBytecode = !bc
	return answersInOrder(t, sys, pred, arity)
}

// TestBytecodeDifferentialRandom is the bytecode differential property
// test: on seeded random mutually recursive programs — across fixpoint
// strategies (BSN, PSN, naive), with and without magic rewriting —
// compiling rule bodies to register bytecode must not change a single
// answer or its position. CI runs this package under -race -cpu=1,4.
func TestBytecodeDifferentialRandom(t *testing.T) {
	strategies := []string{"", "@psn.\n", "@naive.\n"}
	for seed := int64(0); seed < 8; seed++ {
		facts := workload.RandomGraph(10, 25, seed)
		for _, strat := range strategies {
			for _, rewrite := range []string{"@rewrite none.\n", ""} {
				src := facts + workload.RandomDatalogModule(seed, rewrite+strat)
				base := bcRun(t, src, "p0", 2, false)
				if len(base) == 0 {
					t.Fatalf("seed %d %q: differential program produced no answers", seed, rewrite+strat)
				}
				if got := bcRun(t, src, "p0", 2, true); !sameStrings(base, got) {
					t.Errorf("seed %d %q: bytecode changed the answers\noff: %v\non:  %v",
						seed, rewrite+strat, base, got)
				}
			}
		}
	}
}

// TestBytecodeDifferentialOrderedSearch covers the Ordered Search
// fixpoint, where bytecode is auto-disabled (magic-fact attribution reads
// live rule environments): the hook must be a no-op there.
func TestBytecodeDifferentialOrderedSearch(t *testing.T) {
	src := workload.WinGameMoves(18, 2, 3, 7) + workload.WinModule("@ordered_search.")
	run := func(bc bool) []string {
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatal(err)
		}
		sys.noBytecode = !bc
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
		t.Errorf("bytecode changed the Ordered Search answers\noff: %v\non:  %v", base, got)
	}
}

// TestBytecodeDifferentialPipelined covers the pipelined evaluator, which
// never routes through evalRule: the hook must not disturb its answers.
func TestBytecodeDifferentialPipelined(t *testing.T) {
	src := workload.Chain(24) + workload.TCModule("@pipelining.")
	base := bcRun(t, src, "tc", 2, false)
	if len(base) == 0 {
		t.Fatal("pipelined program produced no answers")
	}
	if got := bcRun(t, src, "tc", 2, true); !sameStrings(base, got) {
		t.Errorf("bytecode changed the pipelined answers\noff: %v\non:  %v", base, got)
	}
}

// TestBytecodeDifferentialArithmetic drives the compiled builtin fragment
// — assignment into a free variable, unboxed integer arithmetic, bound
// comparisons — under an aggregate selection, whose displacing inserts the
// machine must observe exactly as the interpreter does.
func TestBytecodeDifferentialArithmetic(t *testing.T) {
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
	base := bcRun(t, src, "best", 2, false)
	if len(base) == 0 {
		t.Fatal("aggregate-selection program produced no answers")
	}
	if got := bcRun(t, src, "best", 2, true); !sameStrings(base, got) {
		t.Errorf("bytecode changed the arithmetic answers\noff: %v\non:  %v", base, got)
	}
}

// TestBytecodeEngages pins that the machine actually runs rule
// applications — a differential suite over a path that silently fell back
// to the interpreter would test nothing.
func TestBytecodeEngages(t *testing.T) {
	src := workload.RandomGraph(12, 30, 3) + `
module m.
export tc(ff).
@rewrite none.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
end_module.
`
	measure := func(bc bool) RunStats {
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatal(err)
		}
		sys.noBytecode = !bc
		stats, err := sys.MeasureCall(ast.PredKey{Name: "tc", Arity: 2},
			[]term.Term{term.NewVar("X"), term.NewVar("Y")})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	off := measure(false)
	if off.BytecodeRuns != 0 {
		t.Errorf("bytecode counter non-zero with bytecode off: %+v", off)
	}
	on := measure(true)
	if on.BytecodeRuns == 0 {
		t.Fatalf("no rule application ran on the bytecode machine: %+v", on)
	}
	if on.Answers != off.Answers || on.Derivations != off.Derivations || on.Attempts != off.Attempts {
		t.Errorf("bytecode changed the engine counters: on %+v, off %+v", on, off)
	}
}

// TestBytecodeBudgetAbort aborts bytecode evaluations mid-run — via a
// countdown context and via the fact budget — and checks the abort is a
// clean *AbortError, no goroutine outlives it, and the same System
// recovers to byte-identical answers once the budget is lifted. The
// machine polls the budget per candidate tuple exactly like the
// interpreter, so the abort sweep hits it at every poll point.
func TestBytecodeBudgetAbort(t *testing.T) {
	defer func(old int) { budgetCheckEvery = old }(budgetCheckEvery)
	budgetCheckEvery = 1
	src := workload.RandomGraph(12, 36, 5) + `
module m.
export p(ff).
@rewrite none.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), edge(Z, Y).
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
		t.Fatal("sweep never tripped an abort through the bytecode path")
	}
	assertNoGoroutineLeak(t, base)
}
