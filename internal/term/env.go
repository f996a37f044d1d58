package term

// This file implements binding environments (bindenvs) and the trail of
// variable bindings, per paper §3.1 and Figure 2. During an inference,
// variable bindings are recorded in an environment rather than by
// substituting into the term; a binding records both the bound term and the
// environment that term's own variables must be interpreted in.

// Binding is one environment slot: the term bound to a variable together
// with the environment governing that term's variables. A nil T means the
// slot is unbound.
type Binding struct {
	T Term
	E *Env
}

// Env is a binding environment: a slot per variable of one rule activation
// or one stored fact.
type Env struct {
	slots []Binding
}

// NewEnv returns an environment with n unbound slots.
func NewEnv(n int) *Env {
	if n == 0 {
		return &Env{}
	}
	return &Env{slots: make([]Binding, n)}
}

// Size returns the number of slots.
func (e *Env) Size() int { return len(e.slots) }

// grow ensures slot i exists, extending in a single append.
func (e *Env) grow(i int) {
	if n := i + 1 - len(e.slots); n > 0 {
		e.slots = append(e.slots, make([]Binding, n)...)
	}
}

// EnsureSlots guarantees at least n unbound-capable slots, reusing the
// backing array when possible. Callers pooling environments across rule
// activations use it instead of allocating a fresh Env; slots must already
// be unbound (every Bind is trailed, so a full trail undo restores that).
func (e *Env) EnsureSlots(n int) {
	if n > 0 {
		e.grow(n - 1)
	}
}

// emptyEnv is the canonical environment for ground facts (NVars == 0). A
// ground fact has no variables, so unification never binds into its
// environment and a single shared read-only instance serves every such
// fact — including concurrently, across concurrent evaluations.
var emptyEnv = &Env{}

// EmptyEnv returns the shared environment for terms with no variables.
// It must never be a Bind target.
func EmptyEnv() *Env { return emptyEnv }

// Lookup returns the binding of slot i (zero Binding if out of range or
// unbound).
func (e *Env) Lookup(i int) Binding {
	if e == nil || i < 0 || i >= len(e.slots) {
		return Binding{}
	}
	return e.slots[i]
}

// Reset unbinds every slot, retaining capacity. Used when an environment is
// reused across rule activations.
func (e *Env) Reset() {
	for i := range e.slots {
		e.slots[i] = Binding{}
	}
}

// Deref follows variable bindings through environments until it reaches a
// non-variable term or an unbound variable. It returns the final term and
// the environment in which that term must be interpreted.
func Deref(t Term, e *Env) (Term, *Env) {
	for {
		v, ok := t.(*Var)
		if !ok || v.Index < 0 || e == nil || v.Index >= len(e.slots) {
			return t, e
		}
		b := e.slots[v.Index]
		if b.T == nil {
			return t, e
		}
		t, e = b.T, b.E
	}
}

// trailEntry identifies one variable binding to undo.
type trailEntry struct {
	env *Env
	idx int
}

// Trail records variable bindings made during rule evaluation so that the
// nested-loops join can undo them when it backtracks to consider the next
// tuple in any loop (paper §5.3).
type Trail struct {
	entries []trailEntry
}

// Mark returns the current trail position.
func (tr *Trail) Mark() int { return len(tr.entries) }

// Undo unbinds every variable bound since position m.
func (tr *Trail) Undo(m int) {
	for i := len(tr.entries) - 1; i >= m; i-- {
		en := tr.entries[i]
		en.env.slots[en.idx] = Binding{}
	}
	tr.entries = tr.entries[:m]
}

// Len returns the number of recorded bindings.
func (tr *Trail) Len() int { return len(tr.entries) }

// Bind binds variable v (interpreted in venv) to term t (interpreted in
// tenv), recording the binding on the trail. v must be unbound. Variables
// must have been numbered before binding.
func Bind(v *Var, venv *Env, t Term, tenv *Env, tr *Trail) {
	if v.Index < 0 {
		panic("term: Bind on unnumbered variable " + v.String())
	}
	venv.grow(v.Index)
	venv.slots[v.Index] = Binding{T: t, E: tenv}
	if tr != nil {
		tr.entries = append(tr.entries, trailEntry{env: venv, idx: v.Index})
	}
}
