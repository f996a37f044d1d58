package main

import (
	"fmt"
	"math/rand"
	"strings"

	"coral/internal/workload"
)

// sizes fixes every input size and rate of the three workloads. The
// command line always uses fullSizes; the self-test uses tinySizes.
type sizes struct {
	// fanout and depth of the served hierarchy (serve_point, serve_load).
	fanout, depth int
	// pointRate is serve_point's offered rate, loadRate serve_load's, in
	// operations per second. Both sit below serve_point's saturation.
	pointRate, loadRate float64
	// loadShare is the share of serve_load operations that are /load
	// requests; every moduleEvery-th load also installs a rule module.
	loadShare   float64
	moduleEvery int
	// batch is the number of leaf edges one load appends.
	batch int
	// ruleShare is the share of live serve_load queries that call an
	// installed rule module.
	ruleShare float64
	// closure are the closure_batch query classes.
	closure []closureClass
	// setupReps (closureSetupReps for closure_batch) is how many times
	// setup runs; setup_s is their median.
	setupReps, closureSetupReps int
	// sampleKeys is how many keys per class the traced layer sweep
	// evaluates directly.
	sampleKeys int
	// ladder is serve_point's rate ladder for slo_qps, and sloMS the
	// latency limit on the tail percentile.
	ladder []float64
	sloMS  float64
}

// closureClass is one closure_batch query class: its own program (data
// plus module) in its own System, and one query.
type closureClass struct {
	name, program, query string
	// base names the class's base relation for the relation probes.
	base  string
	arity int
	nodes int
}

func fullSizes() sizes {
	return sizes{
		fanout: 3, depth: 7,
		pointRate: 437.33, loadRate: 218.67,
		loadShare: 0.03, moduleEvery: 4, batch: 8, ruleShare: 0.1,
		closure:   closureClasses(96, 384, 48, 192, 32, 640, 60, 200, 48, 320),
		setupReps: 41, closureSetupReps: 11,
		sampleKeys: 32,
		ladder:     []float64{200, 400, 800, 1200, 1600, 2400, 3200},
		sloMS:      50,
	}
}

func tinySizes() sizes {
	return sizes{
		fanout: 3, depth: 4,
		pointRate: 200, loadRate: 200,
		loadShare: 0.1, moduleEvery: 2, batch: 3, ruleShare: 0.3,
		closure:   closureClasses(16, 48, 12, 36, 10, 40, 12, 30, 10, 30),
		setupReps: 2, closureSetupReps: 2,
		sampleKeys: 4,
		ladder:     []float64{100, 200},
		sloMS:      50,
	}
}

// closureClasses builds the five closure_batch classes at the given graph
// sizes (nodes, edges per class). Graph seeds are fixed: the benchmark
// seed only orders the classes, so engine counters repeat across seeds.
func closureClasses(reachN, reachM, spN, spM, costN, costM, rndN, rndM, dblN, dblM int) []closureClass {
	return []closureClass{
		{name: "reach", // parallel BSN rounds with hash joins
			program: workload.WeightedGraph(reachN, reachM, 10, 96) + workload.ReachModule("@rewrite none."),
			query:   "reach(X, Y)", base: "edge", arity: 3, nodes: reachN},
		{name: "sp", // Figure 3 under Ordered Search: aggregate selection, sequential
			program: workload.WeightedGraph(spN, spM, 10, 48) + workload.ShortestPathModule("@ordered_search."),
			query:   "s_p(0, Y, P, C)", base: "edge", arity: 3, nodes: spN},
		{name: "cost", // arithmetic recursion: the register bytecode's target
			program: workload.WeightedGraph(costN, costM, 10, 22) + costModule,
			query:   "cost(X, Y, C)", base: "edge", arity: 3, nodes: costN},
		{name: "rnd", // a multi-predicate recursive SCC
			program: workload.RandomGraph(rndN, rndM, 60) + workload.RandomDatalogModule(3, ""),
			query:   "p0(X, Y)", base: "edge", arity: 2, nodes: rndN},
		{name: "dbl", // doubly recursive rule: the symmetric delta hash-join path
			program: workload.RandomGraph(dblN, dblM, 11) + doubleModule,
			query:   "p(X, Y)", base: "edge", arity: 2, nodes: dblN},
	}
}

const costModule = `
module m.
export cost(fff).
@rewrite none.
cost(X, Y, C) :- edge(X, Y, W), C = W.
cost(X, Y, C) :- cost(X, Z, C1), edge(Z, Y, W), C = C1 + W, C < 16.
end_module.
`

const doubleModule = `
module m.
export p(ff).
@rewrite none.
@no_indexing.
p(X, Y) :- edge(X, Y).
p(X, Y) :- p(X, Z), p(Z, Y).
end_module.
`

// treeProgram is the served hierarchy under the transitive-closure module;
// no index is declared, as in a default server load.
func (sz sizes) treeProgram() string {
	return workload.Tree(sz.fanout, sz.depth) + workload.TCModule("")
}

// treeNodes is the node count of the served hierarchy.
func (sz sizes) treeNodes() int {
	n, level := 1, 1
	for d := 0; d < sz.depth; d++ {
		level *= sz.fanout
		n += level
	}
	return n
}

// coldKey is the node the setup's cold queries use: the first node of the
// fourth level (a mid-sized subtree), or the root of a shallow tree.
func (sz sizes) coldKey() int {
	if sz.depth < 4 {
		return 0
	}
	n, level := 1, 1
	for d := 0; d < 3; d++ {
		level *= sz.fanout
		n += level
	}
	return n
}

// cycleSegments is how many segments one key cycle is dealt in.
const cycleSegments = 64

// keyCycle deals (class, key) pairs in seeded cycles: every pair appears
// once per cycle, so keys are uniform over all nodes. Within a cycle the
// pairs are stratified by class and tree level: each stratum is spread
// evenly over the cycle's segments at a seeded offset, and each segment is
// shuffled. The rare expensive keys near the root thus arrive spread out
// in every run rather than in seed-dependent clusters, which would make
// the tail percentile measure the clustering instead of the server.
type keyCycle struct {
	r      *rand.Rand
	strata [][][2]int // per (class, level): class index, key
	pairs  [][2]int
	pos    int
}

func newKeyCycle(r *rand.Rand, classes, fanout, depth int) *keyCycle {
	kc := &keyCycle{r: r}
	for c := 0; c < classes; c++ {
		first, width := 0, 1
		for d := 0; d <= depth; d++ {
			var s [][2]int
			for k := first; k < first+width; k++ {
				s = append(s, [2]int{c, k})
			}
			kc.strata = append(kc.strata, s)
			first += width
			width *= fanout
		}
	}
	return kc
}

func (kc *keyCycle) deal() {
	segs := make([][][2]int, cycleSegments)
	for _, s := range kc.strata {
		kc.r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		off := kc.r.Float64()
		for i, p := range s {
			seg := int((float64(i) + off) * cycleSegments / float64(len(s)))
			segs[seg] = append(segs[seg], p)
		}
	}
	kc.pairs = kc.pairs[:0]
	for _, seg := range segs {
		kc.r.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		kc.pairs = append(kc.pairs, seg...)
	}
	kc.pos = 0
}

func (kc *keyCycle) next() (class, key int) {
	if kc.pos == len(kc.pairs) {
		kc.deal()
	}
	p := kc.pairs[kc.pos]
	kc.pos++
	return p[0], p[1]
}

var readClasses = []string{"edge", "tc"}

func readQuery(class, key int) string {
	return fmt.Sprintf("%s(%d, X)", readClasses[class], key)
}

// loadProgram renders load number i: batch new leaf edges under seeded
// parents of the original hierarchy, plus, when withModule, a uniquely
// named positive rule module r<i> that later live queries call.
func loadProgram(r *rand.Rand, i, batch, nodes int, nextID *int, withModule bool) string {
	var b strings.Builder
	for j := 0; j < batch; j++ {
		fmt.Fprintf(&b, "edge(%d, %d).\n", r.Intn(nodes), *nextID)
		*nextID++
	}
	if withModule {
		body := "edge(X, Z), edge(Z, Y)"
		if r.Intn(2) == 0 {
			body = "tc(X, Z), edge(Z, Y)"
		}
		fmt.Fprintf(&b, "module ext%d.\nexport r%d(bf).\nr%d(X, Y) :- %s.\nend_module.\n", i, i, i, body)
	}
	return b.String()
}
