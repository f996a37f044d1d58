package engine

// The ablation benchmarks of the evaluation mechanisms that are always on
// in production: each arm runs the same program with one mechanism off
// through its test hook (System.noJoinPlanning, noStaticSeeding,
// noHashJoins, noBytecode) or on. The other E-series benchmarks live in
// the root package.

import (
	"fmt"
	"testing"

	"coral/internal/ast"
	"coral/internal/term"
	"coral/internal/workload"
)

// benchSystem consults src into a fresh system, failing the benchmark on
// error.
func benchSystem(b *testing.B, src string) *System {
	b.Helper()
	sys, err := LoadSystem(src)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchCall evaluates pred(args) to completion, failing the benchmark on
// an error or an empty answer set.
func benchCall(b *testing.B, sys *System, pred string, args ...term.Term) {
	b.Helper()
	stats, err := sys.MeasureCall(ast.PredKey{Name: pred, Arity: len(args)}, args)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Answers == 0 {
		b.Fatal("no answers")
	}
}

// BenchmarkE17JoinPlan measures the cost-based join planner (DESIGN.md
// §5.10) on a cross-product-prone 3-literal rule: the written order joins
// big1 × big2 (quadratic) before link constrains anything; the planned
// order drives the join through link (linear). "off" is the pre-planner
// written-order behavior, "on" the default.
func BenchmarkE17JoinPlan(b *testing.B) {
	var facts string
	n := 180
	for i := 0; i < n; i++ {
		facts += fmt.Sprintf("big1(a%d, b%d).\nbig2(c%d, v%d).\n", i, i, i, i%4)
	}
	for i := 0; i < n; i += 8 {
		facts += fmt.Sprintf("link(b%d, c%d).\n", i, i)
	}
	mod := `
module m.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), link(Y, Z).
end_module.
`
	for _, mode := range []struct {
		name     string
		planning bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+mod)
				sys.noJoinPlanning = !mode.planning
				benchCall(b, sys, "q", term.NewVar("X"), term.NewVar("W"))
			}
		})
	}
}

// BenchmarkE20ColdStartPlan prices planner cold-start seeding (DESIGN.md
// §5.13) on a rule whose only selective literal is a module-call export:
// q joins two unrelated base relations with ok/2, a tiny export that
// keeps no live statistics. The cold planner without seeding prices ok/2
// at the unknown-source default (2^20 rows) and schedules it last — a
// big1 × big2 cross product probed through the module boundary. Seeding
// prices ok/2 from the callee's static estimate (an exact passthrough of
// linkbase/2, whose live count is known), so the very first plan drives
// the join from it.
func BenchmarkE20ColdStartPlan(b *testing.B) {
	var facts string
	n := 180
	for i := 0; i < n; i++ {
		facts += fmt.Sprintf("big1(a%d, b%d).\nbig2(c%d, v%d).\n", i, i, i, i%4)
	}
	for i := 0; i < n; i += 8 {
		facts += fmt.Sprintf("linkbase(b%d, c%d).\n", i, i)
	}
	mods := `
module tiny.
export ok(ff).
ok(Y, Z) :- linkbase(Y, Z).
end_module.
module outer.
export q(ff).
@rewrite none.
q(X, W) :- big1(X, Y), big2(Z, W), ok(Y, Z).
end_module.
`
	for _, mode := range []struct {
		name    string
		seeding bool
	}{
		{"unseeded", false},
		{"seeded", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := benchSystem(b, facts+mods)
				sys.noStaticSeeding = !mode.seeding
				benchCall(b, sys, "q", term.NewVar("X"), term.NewVar("W"))
			}
		})
	}
}

// BenchmarkE21HashJoin compares nested-loops and hash access paths on
// transitive closures dense enough for the planner to adopt the hash mark
// (the deterministic gates are TestPlannerPicksHashJoin and
// TestHashJoinAllocs). Both arms run the planner's build/probe marks
// through lookupFor: in the right-linear rule every delta tuple probes the
// full base relation; in the doubly recursive rule ("sym") each delta
// version probes a table over the other recursive literal's range.
// @no_indexing isolates the comparison: without it the optimizer plants a
// persistent argIndex and both paths enumerate the same candidates.
func BenchmarkE21HashJoin(b *testing.B) {
	facts := workload.RandomGraph(48, 320, 11)
	linear := `
module m.
export tc(ff).
@rewrite none.
@no_indexing.
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
end_module.
`
	for _, w := range []struct {
		name, mod, pred string
	}{
		{"linear", linear, "tc"},
		{"sym", doubleModule, "p"},
	} {
		for _, mode := range []struct {
			name string
			hash bool
		}{
			{"nestedloops", false},
			{"hash", true},
		} {
			b.Run(w.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sys := benchSystem(b, facts+w.mod)
					sys.noHashJoins = !mode.hash
					benchCall(b, sys, w.pred, term.NewVar("X"), term.NewVar("Y"))
				}
			})
		}
	}
}

// BenchmarkE22Bytecode measures compiling rule bodies to
// adornment-specialized register bytecode (DESIGN.md §5.15) against the
// nested-loops interpreter, toggled per arm via the noBytecode hook on
// otherwise identical systems — answers are byte-identical by
// construction (the differential suites in this package pin it).
//
// reach is the E05 reachability closure: two-literal rules the hash-join
// marks already serve, so the bytecode margin there is small
// and honest. spath is E05 shortest path under an aggregate selection.
// arith is the workload the machine exists for — a three-literal
// recursion with an arithmetic assignment and a bound comparison per
// candidate, where the interpreter walks terms, allocates environment
// bindings and re-classifies the expression for every tuple while the
// machine runs flat opcodes over unboxed integers.
func BenchmarkE22Bytecode(b *testing.B) {
	reachFacts := workload.WeightedGraph(48, 192, 10, 48)
	spathFacts := workload.WeightedGraph(24, 96, 10, 24)
	arithFacts := workload.WeightedGraph(32, 640, 10, 22)
	workloads := []struct {
		name, src, pred string
		args            []term.Term
	}{
		{"reach", reachFacts + workload.ReachModule(""), "reach",
			[]term.Term{term.NewVar("X"), term.NewVar("Y")}},
		{"spath", spathFacts + workload.ShortestPathModule("@ordered_search."), "s_p",
			[]term.Term{term.Int(0), term.NewVar("Y"), term.NewVar("P"), term.NewVar("C")}},
		{"arith", arithFacts + costModule, "cost",
			[]term.Term{term.NewVar("X"), term.NewVar("Y"), term.NewVar("C")}},
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			bc   bool
		}{
			{"interp", false},
			{"bytecode", true},
		} {
			b.Run(w.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sys := benchSystem(b, w.src)
					sys.noBytecode = !mode.bc
					benchCall(b, sys, w.pred, w.args...)
				}
			})
		}
	}
}
