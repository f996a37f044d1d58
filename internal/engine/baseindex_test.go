package engine

import (
	"testing"

	"coral/internal/parser"
	"coral/internal/relation"
	"coral/internal/workload"
)

// loadModulesFirst is LoadSystem with the install order reversed: modules
// first, then the facts, so every base relation is created after the
// modules' index requests are known.
func loadModulesFirst(t *testing.T, src string) *System {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	for _, m := range u.Modules {
		if err := sys.AddModule(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range u.Facts {
		rel, err := sys.BaseRelation(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		rel.Insert(relation.NewFact(f.Args, nil))
	}
	return sys
}

// TestBaseIndexAttemptsGate is the deterministic counter gate for
// install-time base indexes: a read-only View never creates an index, so
// its bound probes of edge are served by the indexes the tc module
// requested when it was installed. A point read of edge considers exactly
// its answers, and the closure from node 5 stays within 20 attempts per
// answer (a scan of the 3,279 edges per probe makes thousands). Both
// install orders are covered: indexes built on existing relations by
// AddModule, and on relations BaseRelation creates later.
func TestBaseIndexAttemptsGate(t *testing.T) {
	src := workload.Tree(3, 7) + workload.TCModule("")
	for _, tc := range []struct {
		name string
		load func(*testing.T, string) *System
	}{
		{"facts-first", buildSystem},
		{"module-first", loadModulesFirst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.load(t, src)
			v := sys.NewView(nil)
			got, st := askView(t, v, "edge(5, X)")
			if len(got) != 3 || st.Attempts != st.Answers {
				t.Errorf("edge(5, X): %d answers, %d attempts; want 3 answers and one attempt each", len(got), st.Attempts)
			}
			got, st = askView(t, v, "tc(5, X)")
			if len(got) != 363 {
				t.Fatalf("tc(5, X): %d answers, want 363", len(got))
			}
			t.Logf("tc(5, X): %d attempts for %d answers", st.Attempts, st.Answers)
			if st.Attempts >= 20*st.Answers {
				t.Errorf("tc(5, X): %d attempts for %d answers, want under 20 per answer", st.Attempts, st.Answers)
			}
		})
	}
}

// TestBaseIndexRollback: Restore drops the indexes a failed load created
// on relations that predate the checkpoint — explicit @make_index and
// install-time requests alike — and forgets the failed load's requests,
// without invalidating a snapshot of the untouched extent.
func TestBaseIndexRollback(t *testing.T) {
	sys := buildSystem(t, `edge(1, 2). edge(2, 3).
module a.
export p(f).
p(X) :- edge(X, Y).
end_module.
`)
	edge, err := sys.BaseRelation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := edge.PrefixView()
	cp := sys.Checkpoint()

	// The failed load: an explicit index on edge's second argument, a
	// module whose rules request indexes on edge and on a relation that
	// does not exist yet, then a module already defined.
	if err := edge.MakeIndex(1); err != nil {
		t.Fatal(err)
	}
	u, err := parser.Parse(`
module b.
export rev(bf).
rev(Y, X) :- edge(X, Y), tag(X, Y).
end_module.
module a.
export p(f).
p(X) :- edge(X, Y).
end_module.
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddModule(u.Modules[0]); err != nil {
		t.Fatal(err)
	}
	if !edge.HasIndex(1) {
		t.Fatal("setup: edge has no index on its second argument")
	}
	if err := sys.AddModule(u.Modules[1]); err == nil {
		t.Fatal("redefining module a succeeded")
	}
	sys.Restore(cp)

	if edge.HasIndex(1) {
		t.Error("edge keeps the failed load's index on its second argument")
	}
	if !snap.Valid() {
		t.Error("dropping indexes invalidated a snapshot of edge")
	}
	tag, err := sys.BaseRelation("tag", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tag.HasIndex(0, 1) {
		t.Error("tag, created after the rollback, got the rolled-back module's index")
	}
}
