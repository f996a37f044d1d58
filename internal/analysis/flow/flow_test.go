package flow

import (
	"strings"
	"testing"

	"coral/internal/ast"
	"coral/internal/parser"
	"coral/internal/term"
)

func parseModule(t *testing.T, src string) *ast.Module {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(u.Modules) != 1 {
		t.Fatalf("want 1 module, got %d", len(u.Modules))
	}
	return u.Modules[0]
}

// --- lattice laws ---

func TestBindValJoinLaws(t *testing.T) {
	vals := []BindVal{Unreached, Ground, Bound, Free}
	for _, a := range vals {
		if a.Join(a) != a {
			t.Errorf("join not idempotent at %v", a)
		}
		for _, b := range vals {
			if a.Join(b) != b.Join(a) {
				t.Errorf("join not commutative at %v,%v", a, b)
			}
			if got := a.Meet(b).Join(b); got != b {
				t.Errorf("absorption failed at %v,%v: %v", a, b, got)
			}
			for _, c := range vals {
				if a.Join(b.Join(c)) != a.Join(b).Join(c) {
					t.Errorf("join not associative at %v,%v,%v", a, b, c)
				}
			}
		}
	}
	// Order sanity: joining upward never loses information.
	if Ground.Join(Free) != Free || Unreached.Join(Ground) != Ground || Ground.Join(Bound) != Bound {
		t.Error("lattice order broken")
	}
}

func sampleShapes() []Shape {
	varAny := func(*term.Var) Shape { return AnyShape() }
	return []Shape{
		{},
		AnyShape(),
		abstractTerm(term.Int(5), varAny, 3),
		abstractTerm(term.Atom("madison"), varAny, 3),
		abstractTerm(term.Str("hi"), varAny, 3),
		abstractTerm(term.NewFunctor("e", term.Atom("a"), term.Int(1)), varAny, 3),
		abstractTerm(term.Cons(term.Atom("x"), term.EmptyList()), varAny, 3),
		numShape(),
	}
}

func TestShapeJoinLaws(t *testing.T) {
	const breadth = 4
	shapes := sampleShapes()
	for _, a := range shapes {
		if !a.Join(a, breadth).Equal(a) {
			t.Errorf("shape join not idempotent at %s: %s", a, a.Join(a, breadth))
		}
		for _, b := range shapes {
			ab, ba := a.Join(b, breadth), b.Join(a, breadth)
			if !ab.Equal(ba) {
				t.Errorf("shape join not commutative: %s vs %s", ab, ba)
			}
			// Join is an upper bound: joining a back in changes nothing.
			if !ab.Join(a, breadth).Equal(ab) {
				t.Errorf("join not an upper bound: (%s ⊔ %s) ⊔ %s = %s", a, b, a, ab.Join(a, breadth))
			}
			if !a.Overlaps(a) && !a.IsBottom() {
				t.Errorf("%s should overlap itself", a)
			}
		}
	}
	if !AnyShape().Join(shapes[2], breadth).IsAny() {
		t.Error("any must absorb")
	}
}

func TestShapeBreadthWidening(t *testing.T) {
	varAny := func(*term.Var) Shape { return AnyShape() }
	s := Shape{}
	for _, sym := range []string{"a", "b", "c", "d", "e", "f"} {
		s = s.Join(abstractTerm(term.Atom(sym), varAny, 3), 4)
	}
	// Six distinct atoms with breadth 4: collapsed to the atom sort.
	if got := s.String(); got != "atom" {
		t.Fatalf("expected widening to sort atom, got %s", got)
	}
	n := Shape{}
	for i := 0; i < 6; i++ {
		n = n.Join(abstractTerm(term.Int(int64(i)), varAny, 3), 4)
	}
	if got := n.String(); got != "int" {
		t.Fatalf("expected widening to sort int, got %s", got)
	}
}

func TestShapeDepthWidening(t *testing.T) {
	varAny := func(*term.Var) Shape { return AnyShape() }
	// s(s(s(s(0)))) at depth 2: the skeleton is cut off with any.
	deep := term.NewFunctor("s", term.NewFunctor("s", term.NewFunctor("s", term.NewFunctor("s", term.Int(0)))))
	got := abstractTerm(deep, varAny, 2).String()
	if got != "s(s(any))" {
		t.Fatalf("depth widening: got %s", got)
	}
	if abstractTerm(deep, varAny, 0).String() != "any" {
		t.Fatal("depth 0 must be any")
	}
}

// --- transfer monotonicity ---

func valsLeq(a, b []BindVal) bool {
	for i := range a {
		if a[i].Join(b[i]) != b[i] {
			return false
		}
	}
	return true
}

func TestTransferMonotone(t *testing.T) {
	m := parseModule(t, `
		module mono.
		export p(bf).
		p(X, Y) :- e(X, Z), Z = W, q(W, Y).
		q(A, B) :- e(A, B).
		end_module.
	`)
	res := Analyze(m, Options{NegFree: true})
	r := m.Rules[0]
	anyShapes := []Shape{AnyShape(), AnyShape()}
	runWith := func(call []BindVal) []BindVal {
		ev := &ruleEval{res: res, factsOf: func(ast.PredKey, []BindVal, []Shape, bool) ([]BindVal, []Shape) {
			return nil, nil
		}}
		heads, _ := ev.run(r, "bf", call, anyShapes)
		return heads
	}
	strong := runWith([]BindVal{Ground, Free})
	weak := runWith([]BindVal{Bound, Free})
	weaker := runWith([]BindVal{Free, Free})
	if !valsLeq(strong, weak) || !valsLeq(weak, weaker) {
		t.Fatalf("transfer not monotone: %v ⋢ %v ⋢ %v", strong, weak, weaker)
	}
}

// --- fixpoint termination on cyclic mutual recursion ---

func TestFixpointTerminatesOnMutualRecursionWithGrowth(t *testing.T) {
	// p and q are mutually recursive and p wraps its argument in a
	// growing functor: without depth-k widening the shape domain would
	// climb forever. The test passes iff Analyze returns.
	m := parseModule(t, `
		module cyc.
		export p(f).
		p(s(X)) :- q(X).
		q(X) :- p(X).
		p(zero).
		end_module.
	`)
	res := Analyze(m, Options{Depth: 3, Breadth: 2})
	pk := ast.PredKey{Name: "p", Arity: 1}
	if !res.Reachable[pk] || !res.Reachable[ast.PredKey{Name: "q", Arity: 1}] {
		t.Fatal("both predicates must be reachable")
	}
	sh := res.StandaloneShapes[pk][0].String()
	if !strings.Contains(sh, "s(") && sh != "any" {
		t.Fatalf("expected a widened s(...) skeleton or any, got %s", sh)
	}
	// Re-running must be deterministic.
	again := Analyze(m, Options{Depth: 3, Breadth: 2})
	if res.Report() != again.Report() {
		t.Fatal("analysis is nondeterministic")
	}
}

func TestFixpointTerminatesOnListGrowth(t *testing.T) {
	// The cons tower deepens one level per round and Join merges same-symbol
	// skeletons pointwise, so without widening at the summary joins the
	// standalone pass never converges (regression: the depth cap must apply
	// on store, not only inside abstractTerm).
	m := parseModule(t, `
		module lists.
		export p(f).
		p([]).
		p([X|L]) :- p(L), e(X).
		end_module.
	`)
	res := Analyze(m, Options{Depth: 3, Breadth: 4})
	sh := res.StandaloneShapes[ast.PredKey{Name: "p", Arity: 1}][0].String()
	if !strings.Contains(sh, "[") && sh != "any" {
		t.Fatalf("expected a list skeleton or any, got %s", sh)
	}
}

// --- end-to-end inference ---

func TestAnalyzeInfersBindingsAndGroundness(t *testing.T) {
	m := parseModule(t, `
		module anc.
		export anc(bf).
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
		nong(X, Y) :- par(X, Z).
		export nong(bf).
		end_module.
	`)
	res := Analyze(m, Options{NegFree: true})
	anc := Context{Pred: ast.PredKey{Name: "anc", Arity: 2}, Adorn: "bf"}
	s, ok := res.Contexts[anc]
	if !ok {
		t.Fatalf("missing context %v; have %v", anc, res.Order)
	}
	if s.Call[0] != Ground || s.Call[1] != Free {
		t.Fatalf("anc_bf call = %v,%v", s.Call[0], s.Call[1])
	}
	// Facts of anc under bf: both positions ground (par is base, assumed
	// ground; X comes in ground).
	if s.Facts[0] != Ground || s.Facts[1] != Ground {
		t.Fatalf("anc_bf facts = %v,%v", s.Facts[0], s.Facts[1])
	}
	// nong stores Y unbound: possibly non-ground at position 2.
	nk := ast.PredKey{Name: "nong", Arity: 2}
	if res.Standalone[nk][1] != Bound {
		t.Fatalf("nong standalone = %v", res.Standalone[nk])
	}
	if got := res.Contexts[Context{Pred: nk, Adorn: "bf"}].Facts[1]; got != Bound {
		t.Fatalf("nong_bf facts[1] = %v", got)
	}
}

func TestReachContextsAndPruning(t *testing.T) {
	m := parseModule(t, `
		module g.
		export p(bf).
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		dead(X) :- deader(X).
		deader(X) :- dead(X).
		end_module.
	`)
	rb, err := Reach(m.Rules, ast.PredKey{Name: "p", Arity: 2}, "bf", ReachOpts{NegFree: true})
	if err != nil {
		t.Fatal(err)
	}
	// p_bf is the only reachable context: the dead cycle is never visited.
	if len(rb.Order) != 1 || rb.Order[0] != (Context{Pred: ast.PredKey{Name: "p", Arity: 2}, Adorn: "bf"}) {
		t.Fatalf("contexts: %v", rb.Order)
	}
	// The recursive call p(Z, Y) sees Z bound (from e) and Y free.
	rf := rb.Rules[rb.Order[0]][1]
	if rf.Calls[1].Adorn != "bf" {
		t.Fatalf("recursive call adorn = %q", rf.Calls[1].Adorn)
	}
	res := Analyze(m, Options{NegFree: true})
	if res.Reachable[ast.PredKey{Name: "dead", Arity: 1}] {
		t.Fatal("dead must be unreachable in Analyze too")
	}
	if !strings.Contains(res.Report(), "unreachable from any exported query form") {
		t.Fatalf("report must flag unreachable preds:\n%s", res.Report())
	}
}
