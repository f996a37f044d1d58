package relation

import (
	"testing"

	"coral/internal/term"
)

// treeEdges builds edge(parent, child) for a complete tree with the given
// fanout and depth, nodes numbered breadth-first from 0 (the shape of
// workload.Tree), and returns it with the number of internal nodes.
func treeEdges(fanout, depth int) (*HashRelation, int) {
	r := NewHashRelation("edge", 2)
	next, frontier := 1, []int{0}
	inner := 0
	for d := 0; d < depth; d++ {
		var grown []int
		for _, p := range frontier {
			inner++
			for c := 0; c < fanout; c++ {
				r.Insert(NewFact([]term.Term{term.Int(p), term.Int(next)}, nil))
				grown = append(grown, next)
				next++
			}
		}
		frontier = grown
	}
	return r, inner
}

// BenchmarkLookup is the bound first-argument probe edge(k, X) over the
// 3,279 edges of a fanout-3, depth-7 tree, k cycling over the internal
// nodes. "scan" has no index, so every lookup yields the whole relation;
// "index" has the argument-form index on the first argument that an
// installed module requests, so a lookup yields the node's 3 children.
// candidates/op is what the join must then try to unify (its attempts).
func BenchmarkLookup(b *testing.B) {
	for _, arm := range []struct {
		name  string
		index bool
	}{{"scan", false}, {"index", true}} {
		b.Run(arm.name, func(b *testing.B) {
			r, inner := treeEdges(3, 7)
			if r.Len() != 3279 {
				b.Fatalf("tree has %d edges, want 3279", r.Len())
			}
			if arm.index {
				if err := r.MakeIndex(0); err != nil {
					b.Fatal(err)
				}
			}
			keys := make([]term.Term, inner)
			for i := range keys {
				keys[i] = term.Int(i)
			}
			pat := []term.Term{nil, &term.Var{Index: 0}}
			env := term.NewEnv(1)
			candidates := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pat[0] = keys[i%inner]
				it := r.Lookup(pat, env)
				for _, ok := it.Next(); ok; _, ok = it.Next() {
					candidates++
				}
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
		})
	}
}
