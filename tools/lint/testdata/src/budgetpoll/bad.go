// Package engine is a lint fixture: the budgetpoll analyzer only fires
// on the engine package, where budgetGuard lives. Exactly three loops
// below violate the rule (a raw unpolled drain and two pipeline drains);
// the rest exercise the accepted shapes.
package engine

type iter struct{}

func (iter) Next() (int, bool) { return 0, false }

type guard struct{}

func (guard) pollBudget() {}
func (guard) poll()       {}

// scanWithoutPoll is the seeded violation: an unbounded iterator drain
// with no amortized budget check.
func scanWithoutPoll(it iter) int {
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// scanWithPoll is the sanctioned shape: the loop polls the guard.
func scanWithPoll(it iter, g guard) int {
	n := 0
	for {
		g.pollBudget()
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// scanAnnotated shows the escape hatch for provably bounded scans.
func scanAnnotated(it iter) int {
	n := 0
	// lint:allow scanloop — fixture: pretend this drains a materialized relation.
	for {
		_, ok := it.Next()
		if !ok {
			return n
		}
		n++
	}
}

// peekOnce is not a loop: a single Next call needs no poll.
func peekOnce(it iter) bool {
	_, ok := it.Next()
	return ok
}

// closureScan: the Next sits inside a closure, so the surrounding loop is
// not the driver — the closure's caller is. Not flagged.
func closureScan(it iter) func() bool {
	var step func() bool
	for i := 0; i < 1; i++ {
		step = func() bool { _, ok := it.Next(); return ok }
	}
	return step
}

// pipeSrc and pipeStage model a composed operator pipeline: a source that
// runs a poll hook per tuple and a stage that wraps it.
type pipeSrc struct{ poll func() }

func (s *pipeSrc) Next() (int, bool) { s.poll(); return 0, false }

type pipeStage struct{ in *pipeSrc }

func (p *pipeStage) Next() (int, bool) { return p.in.Next() }

// drainHookedPipeline is the second seeded violation: the pipeline's source
// carries the guard's poll hook, but the rule looks only at the drain loop
// itself, so a drain without its own poll (or a bounded-scan annotation) is
// flagged however the pipeline was built.
func drainHookedPipeline(g guard) int {
	scan := &pipeSrc{poll: g.pollBudget}
	proj := &pipeStage{in: scan}
	n := 0
	for {
		_, ok := proj.Next()
		if !ok {
			return n
		}
		n++
	}
}

// drainUnhookedPipeline is the third seeded violation: the pipeline was
// composed without any poll hook, so draining it is as unbounded as a raw
// iterator scan.
func drainUnhookedPipeline() int {
	scan := &pipeSrc{poll: nil}
	proj := &pipeStage{in: scan}
	n := 0
	for {
		_, ok := proj.Next()
		if !ok {
			return n
		}
		n++
	}
}
