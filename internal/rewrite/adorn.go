package rewrite

import (
	"sort"

	"coral/internal/analysis/flow"
	"coral/internal/ast"
	"coral/internal/term"
)

// Adornment (paper §4.1): starting from a query form such as p^bf, rules
// are specialized by binding pattern. An argument is 'b' (bound) when every
// variable in it is bound at the point of call; bindings propagate across
// subgoals left to right (CORAL's default sideways information passing
// strategy).
//
// The reachability walk itself lives in analysis/flow.Reach — shared with
// the abstract interpreter — and Adorn is a renaming pass over its result: each reachable (predicate, adornment)
// context becomes a predicate named orig_adornment (e.g. ancestor_bf); base
// and imported predicates are never adorned.

// AdornedPred records what an adorned predicate name stands for.
type AdornedPred struct {
	Orig  ast.PredKey
	Adorn string
}

// Adorned is the result of adorning a program for one query form.
type Adorned struct {
	// Rules are adorned copies of the reachable rules.
	Rules []*ast.Rule
	// Preds maps adorned names to their origin.
	Preds map[string]AdornedPred
	// QueryName is the adorned name of the query predicate.
	QueryName string
	// Derived is the set of predicates defined in the module.
	Derived map[ast.PredKey]bool
}

// AdornedName builds the adorned predicate name.
func AdornedName(pred, adorn string) string { return pred + "_" + adorn }

// AllFree returns the all-free adornment for the given arity.
func AllFree(arity int) string { return flow.AllFree(arity) }

// AllBound returns the all-bound adornment for the given arity.
func AllBound(arity int) string {
	b := make([]byte, arity)
	for i := range b {
		b[i] = 'b'
	}
	return string(b)
}

// AdornOptions tunes adornment.
type AdornOptions struct {
	// NegFree forces negated derived calls to the all-free adornment. This
	// is required for stratified evaluation: the negated predicate is then
	// computed in full in a lower stratum, with an unconditional magic
	// seed. Ordered Search instead keeps bound adornments on negated calls
	// and gates them with done literals (paper §5.4.1).
	NegFree bool
	// Reorder applies join order selection before adorning each rule
	// (paper §4.2), scheduling the most bound literal next instead of
	// following source order.
	Reorder bool
}

// reachOpts translates adornment options for flow.Reach, wiring in the
// rewriter's join order selection when Reorder is set.
func reachOpts(opts AdornOptions) flow.ReachOpts {
	ro := flow.ReachOpts{NegFree: opts.NegFree}
	if opts.Reorder {
		ro.Reorder = func(body []ast.Literal, bound map[*term.Var]bool) []ast.Literal {
			return reorderBody(body, varSet(bound))
		}
	}
	return ro
}

// Adorn specializes rules for query form (query, adorn). Aggregated head
// positions are forced free: the aggregate's value cannot be propagated
// into the body as a binding.
func Adorn(rules []*ast.Rule, query ast.PredKey, adorn string, opts AdornOptions) (*Adorned, error) {
	rb, err := flow.Reach(rules, query, adorn, reachOpts(opts))
	if err != nil {
		return nil, err
	}
	a := &Adorned{
		Preds:     make(map[string]AdornedPred, len(rb.Order)),
		Derived:   rb.Derived,
		QueryName: AdornedName(rb.Query.Pred.Name, rb.Query.Adorn),
	}
	for _, ctx := range rb.Order {
		name := AdornedName(ctx.Pred.Name, ctx.Adorn)
		a.Preds[name] = AdornedPred{Orig: ctx.Pred, Adorn: ctx.Adorn}
		for _, rf := range rb.Rules[ctx] {
			ar := &ast.Rule{
				Head: ast.Literal{Pred: name, Args: rf.Rule.Head.Args},
				Body: make([]ast.Literal, len(rf.Body)),
				Aggs: rf.Rule.Aggs,
				Line: rf.Rule.Line,
			}
			for i, l := range rf.Body {
				if call := rf.Calls[i]; call.Pred.Name != "" {
					l.Pred = AdornedName(call.Pred.Name, call.Adorn)
				}
				ar.Body[i] = l
			}
			a.Rules = append(a.Rules, ar)
		}
	}
	return a, nil
}

// varSet tracks bound variables by object identity.
type varSet map[*term.Var]bool

// addVars inserts every variable of t.
func (s varSet) addVars(t term.Term) {
	switch x := t.(type) {
	case *term.Var:
		s[x] = true
	case *term.Functor:
		for _, a := range x.Args {
			s.addVars(a)
		}
	}
}

// covers reports whether every variable of t is in the set (a term with no
// variables is covered).
func (s varSet) covers(t term.Term) bool {
	switch x := t.(type) {
	case *term.Var:
		return s[x]
	case *term.Functor:
		for _, a := range x.Args {
			if !s.covers(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// VarsOf collects the variables of a term list.
func VarsOf(ts []term.Term) varSet {
	s := make(varSet)
	for _, t := range ts {
		s.addVars(t)
	}
	return s
}

// SortedPredNames returns the adorned predicate names in sorted order (for
// deterministic output).
func (a *Adorned) SortedPredNames() []string {
	names := make([]string, 0, len(a.Preds))
	for n := range a.Preds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
