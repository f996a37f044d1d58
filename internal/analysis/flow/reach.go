package flow

import (
	"fmt"

	"coral/internal/ast"
	"coral/internal/term"
)

// Reach is the one reachability-plus-adornment traversal of the program
// (paper §4.1): a breadth-first walk over (predicate, adornment) contexts
// starting at the query form, computing for every reachable context the
// scheduled rule bodies and the adornment of each derived call under
// left-to-right sideways information passing. The rewriter's Adorn is a
// renaming pass over this result, and the cardinality analysis refines
// its growth findings per reachable context — one traversal, one source
// of truth.

// ReachOpts tunes the traversal.
type ReachOpts struct {
	// NegFree forces negated derived calls to the all-free adornment
	// (required for stratified evaluation; Ordered Search keeps bound
	// adornments and gates them with done literals, paper §5.4.1).
	NegFree bool
	// Reorder, when non-nil, schedules each rule body before the binding
	// walk (join order selection, paper §4.2). The rewriter passes its
	// reorder pass here so adornment sees the order that will run.
	Reorder func(body []ast.Literal, bound map[*term.Var]bool) []ast.Literal
}

// RuleFlow is one rule as analyzed under a context: the body in scheduled
// order and, per scheduled position, the context of the derived call made
// there (the zero Context for base, imported, and builtin literals).
type RuleFlow struct {
	Rule  *ast.Rule
	Body  []ast.Literal
	Calls []Context
}

// Reachable is the result of the traversal.
type Reachable struct {
	// Query is the root context (its adornment is normalized: aggregated
	// positions are demoted to free).
	Query Context
	// Order lists every reachable context in discovery (BFS) order,
	// query first.
	Order []Context
	// Rules holds the analyzed rules of each context, in source order.
	Rules map[Context][]RuleFlow
	// Derived is the set of predicates defined by the rule set.
	Derived map[ast.PredKey]bool
	// AggPos records aggregated head positions per predicate.
	AggPos map[ast.PredKey]map[int]bool
}

// Reach runs the traversal for query form (query, adorn).
func Reach(rules []*ast.Rule, query ast.PredKey, adorn string, opts ReachOpts) (*Reachable, error) {
	if len(adorn) != query.Arity {
		return nil, fmt.Errorf("rewrite: adornment %q has wrong length for %s", adorn, query)
	}
	rb := &Reachable{
		Rules:   make(map[Context][]RuleFlow),
		Derived: make(map[ast.PredKey]bool),
		AggPos:  aggPositions(rules),
	}
	rulesFor := make(map[ast.PredKey][]*ast.Rule)
	for _, r := range rules {
		k := r.Head.Key()
		rb.Derived[k] = true
		rulesFor[k] = append(rulesFor[k], r)
	}
	if !rb.Derived[query] {
		return nil, fmt.Errorf("rewrite: query predicate %s is not defined by the module", query)
	}
	rb.Query = Context{Pred: query, Adorn: normalizeAdorn(rb.AggPos[query], adorn)}

	seen := map[Context]bool{rb.Query: true}
	queue := []Context{rb.Query}
	rb.Order = append(rb.Order, rb.Query)
	for len(queue) > 0 {
		ctx := queue[0]
		queue = queue[1:]
		for _, r := range rulesFor[ctx.Pred] {
			rf := walkRule(r, ctx.Adorn, rb, opts)
			rb.Rules[ctx] = append(rb.Rules[ctx], rf)
			for _, call := range rf.Calls {
				if call.Pred.Name == "" || seen[call] {
					continue
				}
				seen[call] = true
				rb.Order = append(rb.Order, call)
				queue = append(queue, call)
			}
		}
	}
	return rb, nil
}

// walkRule runs the sideways-information-passing walk over one rule under
// a head adornment: variables of bound head arguments start bound, each
// positive literal binds its variables, and "=" propagates bindings when
// one side is covered. Derived body literals get the adornment their
// covered arguments imply.
func walkRule(r *ast.Rule, headAdorn string, rb *Reachable, opts ReachOpts) RuleFlow {
	bound := make(VarSet)
	for i, arg := range r.Head.Args {
		if headAdorn[i] == 'b' {
			bound.AddVars(arg)
		}
	}
	body := r.Body
	if opts.Reorder != nil {
		body = opts.Reorder(body, bound)
	}
	rf := RuleFlow{
		Rule:  r,
		Body:  append([]ast.Literal(nil), body...),
		Calls: make([]Context, len(body)),
	}
	for i := range rf.Body {
		l := &rf.Body[i]
		switch {
		case l.Builtin():
			applyBuiltinBindings(l, bound)
		case rb.Derived[l.Key()]:
			orig := l.Key()
			ad := make([]byte, len(l.Args))
			for ai, arg := range l.Args {
				if bound.Covers(arg) {
					ad[ai] = 'b'
				} else {
					ad[ai] = 'f'
				}
			}
			if l.Neg && opts.NegFree {
				ad = []byte(AllFree(len(l.Args)))
			}
			rf.Calls[i] = Context{Pred: orig, Adorn: normalizeAdorn(rb.AggPos[orig], string(ad))}
			if !l.Neg {
				for _, arg := range l.Args {
					bound.AddVars(arg)
				}
			}
		default:
			// Base or imported: not adorned; a positive occurrence binds
			// its variables.
			if !l.Neg {
				for _, arg := range l.Args {
					bound.AddVars(arg)
				}
			}
		}
	}
	return rf
}

// applyBuiltinBindings updates the bound set for a builtin literal: after
// "X = expr" (or expr = X) with one side fully bound, the other side's
// variables become bound. Comparisons bind nothing.
func applyBuiltinBindings(l *ast.Literal, bound VarSet) {
	if l.Pred != "=" || len(l.Args) != 2 {
		return
	}
	left, right := l.Args[0], l.Args[1]
	switch {
	case bound.Covers(left):
		bound.AddVars(right)
	case bound.Covers(right):
		bound.AddVars(left)
	}
}
