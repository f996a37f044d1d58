package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/term"
	"coral/internal/workload"
)

// seedRun loads src with static seeding forced on or off and returns the
// sorted answers of pred/arity. The hook must be set before the call:
// the seeder attaches per evaluation. Like planner on/off, seeding may
// change the enumeration order (it changes the chosen plans), never the
// answer set.
func seedRun(t *testing.T, src, pred string, arity int, seeding bool) []string {
	t.Helper()
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sys.noStaticSeeding = !seeding
	return answersSorted(t, sys, pred, arity)
}

// TestSeedDifferentialRandom is the seeder's differential property test:
// on seeded random mutually recursive programs, planner cold-start seeding
// must never change the answer set — with and without magic rewriting.
// CI runs this package under -race -cpu=1,4.
func TestSeedDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		facts := workload.RandomGraph(10, 25, seed)
		for _, ann := range []string{"@rewrite none.", ""} {
			src := facts + workload.RandomDatalogModule(seed, ann)
			base := seedRun(t, src, "p0", 2, false)
			if len(base) == 0 {
				t.Fatalf("seed %d ann %q: differential program produced no answers", seed, ann)
			}
			if got := seedRun(t, src, "p0", 2, true); !sameStrings(base, got) {
				t.Errorf("seed %d ann %q: static seeding changed the answer set\noff: %v\non:  %v",
					seed, ann, base, got)
			}
		}
	}
}

// TestSeedDifferentialModes covers every fixpoint variant the planner can
// sit under: BSN, PSN, naive, Ordered Search (where planning is disabled
// but the seeder is still attached), and pipelining (no planner at all).
// Seeding on and off must agree in each.
func TestSeedDifferentialModes(t *testing.T) {
	facts := workload.RandomGraph(12, 30, 11)
	cases := []struct {
		name  string
		src   string
		query string
	}{
		{"bsn", facts + workload.TCModule(""), "tc(A, B)"},
		{"psn", facts + workload.TCModule("@psn."), "tc(A, B)"},
		{"naive", facts + workload.TCModule("@naive."), "tc(A, B)"},
		// win/1 exports only the bound form; the move scan grounds each call.
		{"ordered-search", workload.WinGameMoves(18, 3, 2, 5) + workload.WinModule("@ordered_search."), "move(X, _), win(X)"},
		// Pipelined evaluation is top-down: it needs an acyclic graph to
		// terminate on an all-free transitive-closure query.
		{"pipelined", workload.Chain(12) + workload.RightLinearTC("@pipelining."), "tc(A, B)"},
	}
	run := func(t *testing.T, src, query string, seeding bool) []string {
		t.Helper()
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		sys.noStaticSeeding = !seeding
		return ask(t, sys, query)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off := run(t, c.src, c.query, false)
			if len(off) == 0 {
				t.Fatalf("differential program produced no answers")
			}
			if on := run(t, c.src, c.query, true); !sameStrings(off, on) {
				t.Errorf("static seeding changed the answer set\noff: %v\non:  %v", off, on)
			}
		})
	}
}

// TestSeedDifferentialModuleCall covers the inter-module shape the seeder
// exists for: a caller joining base relations against a callee export that
// keeps no live statistics. Seeding prices the callee from its static
// estimate; the answers must not move.
func TestSeedDifferentialModuleCall(t *testing.T) {
	src := workload.RandomGraph(15, 40, 3) + `
special(1). special(4).
module tiny.
export ok(f).
ok(X) :- special(X).
end_module.
module outer.
export q(ff).
q(X, Y) :- edge(X, Z), edge(Z, Y), ok(Y).
end_module.
`
	off := seedRun(t, src, "q", 2, false)
	on := seedRun(t, src, "q", 2, true)
	if !sameStrings(off, on) {
		t.Errorf("module-call seeding changed the answer set\noff: %v\non:  %v", off, on)
	}
}

// TestSeedStatsModuleCall checks the seeder resolves a module export to
// the callee's static estimate — the exact-passthrough path: ok/1 copies
// special/1, whose live count is known.
func TestSeedStatsModuleCall(t *testing.T) {
	src := `
special(1). special(2). special(3).
module tiny.
export ok(f).
ok(X) :- special(X).
end_module.
`
	sys, err := LoadSystem(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	st, ok := sys.exportStaticStats(ast.PredKey{Name: "ok", Arity: 1}, 0, nil)
	if !ok {
		t.Fatal("no static estimate for the export")
	}
	if st.Rows != 3 {
		t.Errorf("export estimate rows = %d, want 3 (exact passthrough of special/1)", st.Rows)
	}
}

// TestIterBoundSound proves the soundness contract behind the budget hint:
// a completed evaluation's actual iteration count never exceeds the static
// round bound the hint reports.
func TestIterBoundSound(t *testing.T) {
	src := workload.RandomGraph(10, 25, 9) + workload.TCModule("")
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys := NewSystem()
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	if err := sys.AddModule(u.Modules[0]); err != nil {
		t.Fatalf("add module: %v", err)
	}
	prog, err := BuildProgram(u.Modules[0], ast.PredKey{Name: "tc", Arity: 2}, "ff")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	me := newMatEval(prog, sys.external)
	me.seed = sys.seederFor(prog)
	me.addSeed([]term.Term{term.NewVar("A"), term.NewVar("B")}, nil)
	bound := me.seed.iterBound()
	if math.IsInf(bound, 1) {
		t.Fatal("expected a finite static round bound for transitive closure over a known base")
	}
	me.run()
	if me.err != nil {
		t.Fatalf("run: %v", me.err)
	}
	if float64(me.Iterations) > bound {
		t.Errorf("evaluation ran %d iterations, static bound promised ≤ %.0f", me.Iterations, bound)
	}
}

// TestBudgetHintStaticBound checks that an iteration-budget abort carries
// the static round bound when the analysis proved one, and that the hint
// is absent when seeding is off.
func TestBudgetHintStaticBound(t *testing.T) {
	src := workload.Chain(30) + workload.TCModule("")
	for _, seeding := range []bool{true, false} {
		sys, err := LoadSystem(src)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		sys.noStaticSeeding = !seeding
		sys.Budget = Budget{MaxIterations: 2}
		_, err = askErr(sys, "tc(A, B)")
		if err == nil {
			t.Fatalf("seeding=%v: expected an iteration-budget abort", seeding)
		}
		var ab *AbortError
		if !errors.As(err, &ab) || ab.Tripped != AbortIterations {
			t.Fatalf("seeding=%v: err = %v, want iterations abort", seeding, err)
		}
		hinted := strings.Contains(err.Error(), "statically expected ≤")
		if seeding && !hinted {
			t.Errorf("seeding on: abort message lacks the static round bound: %v", err)
		}
		if !seeding && hinted {
			t.Errorf("seeding off: abort message carries a hint it should not: %v", err)
		}
	}
}
