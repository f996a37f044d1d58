package engine

import (
	"testing"

	"coral/internal/workload"
)

// Modules of the benchmark's closure_batch workload (perfbench), shared
// with the ablation benchmarks: costModule is E22's arith workload and
// doubleModule E21's doubly recursive rule.
const (
	costModule = `
module m.
export cost(fff).
@rewrite none.
cost(X, Y, C) :- edge(X, Y, W), C = W.
cost(X, Y, C) :- cost(X, Z, C1), edge(Z, Y, W), C = C1 + W, C < 16.
end_module.
`
	doubleModule = `
module m.
export p(ff).
@rewrite none.
@no_indexing.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`
)

// pinnedCounts are the RunStats counters a query must reproduce exactly.
type pinnedCounts struct {
	attempts, derivations, iterations, stored int
}

// TestClosureCountersPinned is the exact engine-counter gate: every
// closure_batch query (the same generators, graph sizes, seeds and modules
// as the benchmark), and the served tc(5, X), evaluated through NewView
// and View.Query on a fresh system, must make exactly the attempts and
// derivations, run exactly the iterations and store exactly the facts
// pinned here. Evaluation is deterministic, so any change to rewriting,
// planning, hash marks or bytecode that alters the work done shows up as
// a changed count. The ablation row pins the written-order evaluation of
// the doubly recursive rule, the planner's largest win.
func TestClosureCountersPinned(t *testing.T) {
	rows := []struct {
		name, program, query string
		noPlanning           bool
		want                 pinnedCounts
	}{
		{name: "reach",
			program: workload.WeightedGraph(96, 384, 10, 96) + workload.ReachModule("@rewrite none."),
			query:   "reach(X, Y)",
			want:    pinnedCounts{49152, 46464, 7, 9216}},
		{name: "sp",
			program: workload.WeightedGraph(48, 192, 10, 48) + workload.ShortestPathModule("@ordered_search."),
			query:   "s_p(0, Y, P, C)",
			want:    pinnedCounts{20066, 2935, 157, 244}},
		{name: "cost",
			program: workload.WeightedGraph(32, 640, 10, 22) + costModule,
			query:   "cost(X, Y, C)",
			want:    pinnedCounts{751162, 139852, 6, 12118}},
		{name: "rnd",
			program: workload.RandomGraph(60, 200, 60) + workload.RandomDatalogModule(3, ""),
			query:   "p0(X, Y)",
			want:    pinnedCounts{560242, 526124, 8, 22713}},
		{name: "dbl",
			program: workload.RandomGraph(48, 320, 11) + doubleModule,
			query:   "p(X, Y)",
			want:    pinnedCounts{112713, 108608, 3, 2256}},
		{name: "tc5",
			program: workload.Tree(3, 7) + workload.TCModule(""),
			query:   "tc(5, X)",
			want:    pinnedCounts{5270, 2730, 16, 2368}},
		{name: "dbl/written-order",
			program:    workload.RandomGraph(48, 320, 11) + doubleModule,
			query:      "p(X, Y)",
			noPlanning: true,
			want:       pinnedCounts{5096217, 108608, 3, 2256}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sys := buildSystem(t, row.program)
			sys.noJoinPlanning = row.noPlanning
			_, st := askView(t, sys.NewView(nil), row.query)
			got := pinnedCounts{st.Attempts, st.Derivations, st.Iterations, st.FactsStored}
			if got != row.want {
				t.Errorf("%s: attempts/derivations/iterations/facts stored = %d/%d/%d/%d, want %d/%d/%d/%d",
					row.query, got.attempts, got.derivations, got.iterations, got.stored,
					row.want.attempts, row.want.derivations, row.want.iterations, row.want.stored)
			}
		})
	}
}
