package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"coral/internal/parser"
	"coral/internal/relation"
)

// FuzzBytecodeDifferential is the register bytecode machine's on/off
// oracle under fuzz: arbitrary program text is loaded into two systems
// under a tight Budget, one running rule bodies on the machine and one on
// the interpreter (the noBytecode hook), and when both evaluate every
// inline query cleanly their answers must agree byte for byte, in order —
// the machine mirrors the interpreter exactly. Budget trips depend on
// wall clock, so a run where either side errs is not compared; the
// never-panics, never-hangs contract itself is the root package's
// FuzzEval. Top-level @make_index annotations are not applied (neither
// side gets them).
func FuzzBytecodeDifferential(f *testing.F) {
	seeds := []string{
		// Unbounded arithmetic recursion: must trip the budget.
		"module inf.\nexport num(f).\nnum(0).\nnum(X) :- num(Y), X = Y + 1.\nend_module.\n?- num(X).",
		// Terminating transitive closure with an inline query.
		"edge(a, b). edge(b, c). edge(c, a).\nmodule m.\nexport tc(ff).\ntc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\nend_module.\n?- tc(a, X).",
		// Stratified negation under Ordered Search.
		"move(a, b). move(b, c).\nmodule g.\nexport win(b).\n@ordered_search.\nwin(X) :- move(X, Y), not win(Y).\nend_module.\n?- win(a).",
		// Aggregate selection (shortest paths) with a cycle.
		"edge(a, b, 1). edge(b, c, 2). edge(c, a, 3).\nmodule sp.\nexport p(bfff).\n@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\np(X, Y, [e(X, Y)], C) :- edge(X, Y, C).\np(X, Y, [e(Z, Y)|P], C1) :- p(X, Z, P, C), edge(Z, Y, EC), C1 = C + EC.\nend_module.\n?- p(a, Y, P, C).",
		// Pipelined evaluation.
		"e(1, 2). e(2, 3).\nmodule p.\nexport q(ff).\n@pipelining.\nq(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), q(Z, Y).\nend_module.\n?- q(1, X).",
		// Head aggregation and set grouping.
		"s(a, 1). s(a, 2). s(b, 3).\nmodule a.\nexport t(ff).\nt(X, sum(Y)) :- s(X, Y).\nend_module.\n?- t(X, S).",
		// Runtime type error paths.
		"v(a, x).\nmodule m.\nexport b(ff).\nb(X, Y) :- v(X, V), Y < V + 1.\nend_module.\n?- b(X, Y).",
		// Bytecode fragment boundaries: repeated variables (store vs.
		// compare), functor descent, and a structural "=" the compiler
		// must hand back to the interpreter.
		"e(f(a), f(a)). e(f(a), g(b)).\nmodule s.\nexport q(f).\nq(X) :- e(W, W), W = f(X).\nend_module.\n?- q(X).",
		// Negation with a partially built pattern argument.
		"n(a). n(b). e(a, b).\nmodule ng.\nexport r(f).\nr(X) :- n(X), not e(X, X).\nend_module.\n?- r(X).",
		// Integer overflow promotion inside the unboxed fast path.
		"big(4611686018427387904).\nmodule o.\nexport d(f).\nd(X) :- big(B), X = B * 3.\nend_module.\n?- d(X).",
		// Division by zero thrown from compiled arithmetic.
		"z(0).\nmodule dz.\nexport w(f).\nw(X) :- z(Z), X = 1 / Z.\nend_module.\n?- w(X).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var rendered [2]string
		for i, noBC := range []bool{false, true} {
			out, err := consultRendered(src, noBC)
			if err != nil {
				return
			}
			rendered[i] = out
		}
		if rendered[0] != rendered[1] {
			t.Fatalf("bytecode changed the answers\non:\n%s\noff:\n%s", rendered[0], rendered[1])
		}
	})
}

// consultRendered loads src into a fresh budgeted system and evaluates its
// inline queries, flattening every query's columns, answers and their
// order into one string.
func consultRendered(src string, noBytecode bool) (string, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	sys := NewSystem()
	sys.noBytecode = noBytecode
	sys.Budget = Budget{Timeout: 200 * time.Millisecond, MaxFacts: 5000, MaxIterations: 500}
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			return "", err
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	for _, m := range u.Modules {
		if err := sys.AddModule(m); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	for _, q := range u.Queries {
		vars, facts, err := sys.Query(q.Body)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s | %v\n", q.String(), vars)
		for _, f := range facts {
			fmt.Fprintf(&b, "%v\n", f.Args)
		}
	}
	return b.String(), nil
}
