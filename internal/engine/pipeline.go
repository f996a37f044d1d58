package engine

import (
	"errors"
	"fmt"

	"coral/internal/ast"
	"coral/internal/relation"
	"coral/internal/term"
)

// Pipelining (paper §5.2) is top-down, tuple-at-a-time evaluation in
// co-routining style: rule evaluation generates one answer and transfers
// control back to the consumer; requesting the next answer reactivates the
// frozen computation. In Go the frozen computation is literally the
// iterator tree: each goal holds its rule index and each rule activation
// holds per-literal iterators, so Next() resumes exactly where evaluation
// stopped. Rules are tried in the order they occur in the module; literals
// left to right — guarantees a programmer may rely on (paper §5.2).
//
// Pipelining uses facts on the fly and stores nothing, at the potential
// cost of recomputation (and of non-termination on cyclic data — exactly
// the trade the paper describes against materialization).

// pipeProgram is a compiled pipelined module: a list of predicates, each
// with its rules in definition order (paper §5.1).
type pipeProgram struct {
	modName string
	rules   map[ast.PredKey][]*Compiled
	order   map[ast.PredKey]int
}

func buildPipeProgram(m *ast.Module) (*pipeProgram, error) {
	pp := &pipeProgram{
		modName: m.Name,
		rules:   make(map[ast.PredKey][]*Compiled),
		order:   make(map[ast.PredKey]int),
	}
	notRecursive := func(ast.PredKey) bool { return false }
	for _, r := range m.Rules {
		if len(r.Aggs) > 0 {
			return nil, fmt.Errorf("engine: module %s: aggregation requires materialized evaluation", m.Name)
		}
		c, err := CompileRule(r, notRecursive)
		if err != nil {
			return nil, err
		}
		if _, ok := pp.rules[c.HeadPred]; !ok {
			pp.order[c.HeadPred] = len(pp.order)
		}
		pp.rules[c.HeadPred] = append(pp.rules[c.HeadPred], c)
	}
	return pp, nil
}

// pipeEval is the shared state of one pipelined module call.
type pipeEval struct {
	pp  *pipeProgram
	sys *System
	cfg callCfg
	tr  *term.Trail
	// guard enforces the call's context and Budget; tick amortizes the
	// polls to one per budgetCheckEvery solver steps. Pipelining has no
	// round barriers — the iterator tree itself is the evaluation — so
	// these per-step polls are the only cancellation points.
	guard budgetGuard
	tick  int
}

// poll is the pipelined evaluator's amortized budget check; a tripped
// budget throws and is recovered in pipeScan.Next.
func (ev *pipeEval) poll() {
	if !ev.guard.active() {
		return
	}
	if ev.tick++; ev.tick >= budgetCheckEvery {
		ev.tick = 0
		ev.guard.poll()
	}
}

// noteSolution charges one rule solution against the fact budget: derived
// tuples are never stored under pipelining, so solutions are the analog of
// derived facts (MaxFacts bounds an infinite top-down recursion even
// without a deadline).
func (ev *pipeEval) noteSolution() {
	ev.guard.noteFact()
}

// call sets up a pipelined evaluation of pred(args) and returns its answer
// iterator.
func (pp *pipeProgram) call(sys *System, cfg callCfg, pred ast.PredKey, args []term.Term, env *term.Env) (relation.Iterator, error) {
	if _, ok := pp.rules[pred]; !ok {
		return nil, fmt.Errorf("engine: module %s does not define %s", pp.modName, pred)
	}
	// Snapshot the call so backtracking inside the module cannot disturb
	// the caller's environment.
	callArgs, nvars := term.ResolveArgs(args, env)
	callEnv := term.NewEnv(nvars)
	ev := &pipeEval{pp: pp, sys: sys, cfg: cfg, tr: &term.Trail{}}
	ev.guard = cfg.guard()
	return &pipeScan{
		ev:       ev,
		root:     ev.newGoal(pred, callArgs, callEnv),
		callArgs: callArgs,
		callEnv:  callEnv,
	}, nil
}

// pipeScan adapts the goal iterator to the get-next-tuple interface.
type pipeScan struct {
	ev       *pipeEval
	root     solIter
	callArgs []term.Term
	callEnv  *term.Env
	answers  int
	done     bool
}

// Next implements relation.Iterator.
func (s *pipeScan) Next() (f Fact, ok bool) {
	if s.done {
		return Fact{}, false
	}
	var err error
	func() {
		defer recoverEval(&err)
		ok = s.root.next()
	}()
	if err != nil {
		s.done = true
		// A pipelined abort reports the answers streamed so far (the only
		// stat a strategy that stores nothing can have); re-throw the error
		// value itself so the typed *AbortError survives.
		var ab *AbortError
		if errors.As(err, &ab) && ab.Stats == (RunStats{}) {
			ab.Stats.Answers = s.answers
		}
		Throw(err)
	}
	if !ok {
		s.done = true
		return Fact{}, false
	}
	s.answers++
	return relation.NewFact(s.callArgs, s.callEnv), true
}

// solIter produces solutions one at a time; bindings live in environments
// recorded on the shared trail.
type solIter interface {
	next() bool
}

// newGoal builds the iterator for one goal literal.
func (ev *pipeEval) newGoal(pred ast.PredKey, args []term.Term, env *term.Env) solIter {
	if rules, ok := ev.pp.rules[pred]; ok {
		return &goalIter{ev: ev, rules: rules, args: args, env: env, mark: ev.tr.Mark()}
	}
	return &factIter{ev: ev, pred: pred, args: args, env: env, mark: ev.tr.Mark()}
}

// goalIter tries the rules of a derived predicate in order (paper §5.2: if
// a rule fails to produce an answer, the next rule in the list is tried;
// when there are no more rules, the query on the predicate fails).
type goalIter struct {
	ev    *pipeEval
	rules []*Compiled
	args  []term.Term
	env   *term.Env
	idx   int
	cur   *ruleSol
	mark  int
}

func (g *goalIter) next() bool {
	for {
		g.ev.poll()
		if g.cur != nil {
			if g.cur.next() {
				return true
			}
			g.cur = nil
		}
		g.ev.tr.Undo(g.mark)
		if g.idx >= len(g.rules) {
			return false
		}
		c := g.rules[g.idx]
		g.idx++
		renv := term.NewEnv(c.NVars)
		if term.UnifyArgs(g.args, g.env, c.HeadArgs, renv, g.ev.tr) {
			g.cur = &ruleSol{ev: g.ev, c: c, env: renv}
		} else {
			g.ev.tr.Undo(g.mark)
		}
	}
}

// ruleSol enumerates the solutions of one rule activation by depth-first
// search over its body.
type ruleSol struct {
	ev      *pipeEval
	c       *Compiled
	env     *term.Env
	iters   []solIter
	pos     int
	started bool
	yielded bool // for empty bodies: emitted the single solution
}

func (r *ruleSol) next() bool {
	n := len(r.c.Body)
	if n == 0 {
		if r.yielded {
			return false
		}
		r.yielded = true
		return true
	}
	if !r.started {
		r.started = true
		r.iters = make([]solIter, n)
		r.pos = 0
		r.iters[0] = r.makeIter(0)
	} else {
		// Resume the frozen computation at the deepest literal.
		r.pos = n - 1
	}
	for r.pos >= 0 {
		r.ev.poll()
		if r.iters[r.pos].next() {
			r.pos++
			if r.pos == n {
				// A completed rule solution is the pipelined analog of a
				// derived fact; charge it against the fact budget.
				r.ev.noteSolution()
				return true
			}
			r.iters[r.pos] = r.makeIter(r.pos)
			continue
		}
		r.pos--
	}
	return false
}

func (r *ruleSol) makeIter(pos int) solIter {
	it := &r.c.Body[pos]
	switch it.Kind {
	case ItemBuiltin:
		return &onceIter{ev: r.ev, op: it.Op, args: it.Args, env: r.env, mark: r.ev.tr.Mark()}
	case ItemNegRel:
		return &negIter{ev: r.ev, item: it, env: r.env, mark: r.ev.tr.Mark()}
	default:
		if u, ok := updatePred(it.Pred); ok {
			return &updateIter{ev: r.ev, kind: u, args: it.Args, env: r.env}
		}
		return r.ev.newGoal(it.Pred, it.Args, r.env)
	}
}

// updatePred recognizes the side-effecting update predicates available
// under pipelining (paper §5.2: "pipelining guarantees a particular
// evaluation strategy and order of execution... programmers can exploit
// this guarantee and use predicates like updates that involve
// side-effects").
func updatePred(key ast.PredKey) (string, bool) {
	if key.Arity != 1 {
		return "", false
	}
	switch key.Name {
	case "assert", "retract":
		return key.Name, true
	}
	return "", false
}

// updateIter performs assert(fact) / retract(pattern) against base
// relations. Both succeed exactly once; side effects are not undone on
// backtracking (Prolog semantics).
type updateIter struct {
	ev   *pipeEval
	kind string
	args []term.Term
	env  *term.Env
	used bool
}

func (u *updateIter) next() bool {
	if u.used {
		return false
	}
	u.used = true
	t, e := term.Deref(u.args[0], u.env)
	f, ok := t.(*term.Functor)
	if !ok || f.IsAtom() {
		throwf("engine: %s expects a predicate term, got %s", u.kind, t)
	}
	key := ast.PredKey{Name: f.Sym, Arity: len(f.Args)}
	if u.ev.cfg.sharedRO {
		// A concurrent read-only evaluation (a server session) must not
		// mutate shared base relations: other sessions' reads would race.
		throwf("engine: %s is not available in a read-only evaluation", u.kind)
	}
	if _, isModule := u.ev.sys.Export(key); isModule {
		throwf("engine: %s cannot modify %s: it is defined by a module", u.kind, key)
	}
	rel, ok := u.ev.sys.Relation(key)
	if !ok {
		hr, err := u.ev.sys.BaseRelation(key.Name, key.Arity)
		if err != nil {
			throwf("%v", err)
		}
		rel = hr
	}
	switch u.kind {
	case "assert":
		if !term.GroundUnder(t, e) {
			// Non-ground asserts store universally quantified facts,
			// which CORAL permits (§3.1).
		}
		rel.Insert(relation.NewFact(f.Args, e))
	case "retract":
		d, can := rel.(relation.Deleter)
		if !can {
			throwf("engine: relation %s does not support deletion", key)
		}
		resolved, _ := term.ResolveArgs(f.Args, e)
		d.Delete(resolved, nil)
	}
	return true
}

// factIter scans a base relation, a computed relation, or another module's
// export (one inter-module call per activation, paper §5.6).
type factIter struct {
	ev   *pipeEval
	pred ast.PredKey
	args []term.Term
	env  *term.Env
	iter relation.Iterator
	mark int
}

func (f *factIter) next() bool {
	if f.iter == nil {
		src, err := f.ev.cfg.external(f.pred)
		if err != nil {
			throwf("%v", err)
		}
		f.iter = src.Lookup(f.args, f.env)
	}
	for {
		f.ev.poll()
		f.ev.tr.Undo(f.mark)
		fact, ok := f.iter.Next()
		if !ok {
			return false
		}
		fenv := term.NewEnv(fact.NVars)
		if term.UnifyArgs(f.args, f.env, fact.Args, fenv, f.ev.tr) {
			return true
		}
	}
}

// onceIter evaluates a builtin: at most one solution.
type onceIter struct {
	ev   *pipeEval
	op   string
	args []term.Term
	env  *term.Env
	mark int
	used bool
}

func (o *onceIter) next() bool {
	o.ev.tr.Undo(o.mark)
	if o.used {
		return false
	}
	o.used = true
	if evalBuiltin(o.op, o.args, o.env, o.ev.tr) {
		return true
	}
	o.ev.tr.Undo(o.mark)
	return false
}

// negIter implements negation as failure over ground arguments: succeeds
// exactly once when the sub-goal has no solution. Under pipelining this is
// Prolog-style negation; its meaning depends on rule order and may differ
// from the declarative semantics of materialized evaluation (which is why
// the paper routes stratified programs to bottom-up methods).
type negIter struct {
	ev   *pipeEval
	item *CItem
	env  *term.Env
	mark int
	used bool
}

func (n *negIter) next() bool {
	n.ev.tr.Undo(n.mark)
	if n.used {
		return false
	}
	n.used = true
	for _, a := range n.item.Args {
		if !term.GroundUnder(a, n.env) {
			throwf("engine: negation on %s with unbound argument %s", n.item.Pred, a)
		}
	}
	sub := n.ev.newGoal(n.item.Pred, n.item.Args, n.env)
	found := sub.next()
	n.ev.tr.Undo(n.mark)
	return !found
}
