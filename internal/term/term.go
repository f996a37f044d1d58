// Package term implements the CORAL data model (paper §3): the Arg class
// hierarchy becomes the Term interface; constants of the primitive types
// (integers, doubles, strings, arbitrary-precision integers), variables,
// and functor terms are the built-in implementations. The package also
// provides binding environments (paper Figure 2), unification with a trail
// of variable bindings (paper §5.3), and lazy hash-consing that assigns
// unique identifiers to ground functor terms so that two ground terms unify
// if and only if their identifiers are equal (paper §3.1).
//
// User-defined abstract data types (paper §7.1) implement the External
// interface; all system code manipulates them only through that interface,
// so new types can be added without modifying the evaluation system.
package term

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind discriminates the built-in term representations.
type Kind uint8

// The built-in kinds. KindExternal covers every user-defined abstract data
// type; the concrete Go type distinguishes among them.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBigInt
	KindVar
	KindFunctor
	KindExternal
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBigInt:
		return "bigint"
	case KindVar:
		return "var"
	case KindFunctor:
		return "functor"
	case KindExternal:
		return "external"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Term is the root of the CORAL data-type hierarchy (class Arg in the
// paper). Every value stored in a relation or manipulated by the evaluation
// system implements Term.
type Term interface {
	Kind() Kind
	String() string
}

// External is the interface user-defined abstract data types must satisfy.
// It mirrors the virtual methods the paper requires of every ADT: equals,
// hash, print (String from Term), and construct (left to the type's own
// constructors).
type External interface {
	Term
	// TypeName returns the name of the abstract data type; two externals
	// are comparable only if their type names agree.
	TypeName() string
	// EqualExternal reports whether the receiver equals other. It is only
	// called with other.TypeName() == receiver.TypeName().
	EqualExternal(other External) bool
	// HashExternal returns a hash value consistent with EqualExternal.
	HashExternal() uint64
}

// Int is a 64-bit integer constant.
type Int int64

// Kind implements Term.
func (Int) Kind() Kind { return KindInt }

// String implements Term.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Float is a double-precision floating point constant.
type Float float64

// Kind implements Term.
func (Float) Kind() Kind { return KindFloat }

// String implements Term.
func (f Float) String() string {
	s := strconv.FormatFloat(float64(f), 'g', -1, 64)
	// Ensure floats are always re-readable as floats.
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
		s += ".0"
	}
	return s
}

// Str is a string constant (written "..." in source programs, as opposed to
// bare lowercase atoms which are zero-arity functors).
type Str string

// Kind implements Term.
func (Str) Kind() Kind { return KindString }

// String implements Term.
func (s Str) String() string { return strconv.Quote(string(s)) }

// Big is an arbitrary-precision integer constant. The paper used the DEC
// France BigNum package; we substitute math/big from the standard library.
type Big struct{ V *big.Int }

// NewBig wraps v as a term. The caller must not mutate v afterwards.
func NewBig(v *big.Int) Big { return Big{V: v} }

// Kind implements Term.
func (Big) Kind() Kind { return KindBigInt }

// String implements Term.
func (b Big) String() string { return b.V.String() + "n" }

// Var is a logic variable. Variables are a primitive type in CORAL because
// facts — not just rules — may contain (universally quantified) variables.
//
// Index is the variable's slot in its binding environment. The parser
// produces variables with Index == Unnumbered; compilation renames each
// rule's (or stored fact's) variables to dense indexes 0..n-1.
type Var struct {
	Name  string
	Index int
}

// Unnumbered marks a variable that has not yet been assigned an environment
// slot.
const Unnumbered = -1

// NewVar returns a fresh unnumbered variable.
func NewVar(name string) *Var { return &Var{Name: name, Index: Unnumbered} }

// Kind implements Term.
func (*Var) Kind() Kind { return KindVar }

// String implements Term.
func (v *Var) String() string {
	if v.Name != "" {
		return v.Name
	}
	if v.Index >= 0 {
		return "_V" + strconv.Itoa(v.Index)
	}
	return "_"
}

const maxVarUnknown = math.MinInt32

// Functor is a complex term built from a function symbol and arguments
// (paper §3.1, Figure 2). Zero-arity functors serve as atoms. Lists use the
// symbol "." with two arguments and the atom "[]" as terminator.
//
// A Functor caches its structural hash, the largest variable index occurring
// in it (or -1 if it is ground), and — once interned — the unique identifier
// assigned by hash-consing.
//
// maxVar and id are memoized lazily, so they are published with atomic
// stores and read with atomic loads: terms are shared structurally across
// relations, and concurrent evaluations read stored facts from many
// goroutines at once (DESIGN.md §5.9). Both memos are write-once-per-value
// (id never changes once assigned; maxVar always recomputes to the same
// value), so racing writers are idempotent and a stale read only costs a
// recomputation or the structural slow path.
type Functor struct {
	Sym  string
	Args []Term

	hash   uint64 // structural hash; computed eagerly at construction
	maxVar int32  // atomic; largest Var.Index inside; -1 when ground; maxVarUnknown when stale
	id     uint64 // atomic; hash-consing identifier; 0 when unassigned
}

// groundID atomically reads the memoized hash-consing identifier (0 when
// not yet interned).
func (f *Functor) groundID() uint64 { return atomic.LoadUint64(&f.id) }

// setGroundID atomically publishes the hash-consing identifier.
func (f *Functor) setGroundID(id uint64) { atomic.StoreUint64(&f.id, id) }

// NewFunctor builds the term sym(args...). The argument slice is not copied;
// callers must not mutate it afterwards (structure sharing is the point —
// see paper §9 "Memory Management").
func NewFunctor(sym string, args ...Term) *Functor {
	f := &Functor{Sym: sym, Args: args, maxVar: maxVarUnknown}
	f.hash = structHash(f)
	return f
}

// Atom returns the zero-arity functor sym.
func Atom(sym string) *Functor { return NewFunctor(sym) }

// Kind implements Term.
func (*Functor) Kind() Kind { return KindFunctor }

// Arity returns the number of arguments.
func (f *Functor) Arity() int { return len(f.Args) }

// IsAtom reports whether f has no arguments.
func (f *Functor) IsAtom() bool { return len(f.Args) == 0 }

// ListSym is the functor symbol used for list cons cells.
const ListSym = "."

// NilSym is the symbol of the empty-list atom.
const NilSym = "[]"

// EmptyList returns the empty-list atom.
func EmptyList() *Functor { return Atom(NilSym) }

// Cons returns the list cell [head|tail].
func Cons(head, tail Term) *Functor { return NewFunctor(ListSym, head, tail) }

// MakeList builds a proper list of the given items.
func MakeList(items ...Term) Term { return MakeListTail(EmptyList(), items...) }

// MakeListTail builds the list [items... | tail].
func MakeListTail(tail Term, items ...Term) Term {
	t := tail
	for i := len(items) - 1; i >= 0; i-- {
		t = Cons(items[i], t)
	}
	return t
}

// IsNil reports whether t is the empty-list atom (no dereferencing).
func IsNil(t Term) bool {
	f, ok := t.(*Functor)
	return ok && f.Sym == NilSym && len(f.Args) == 0
}

// IsCons reports whether t is a list cell, returning head and tail.
func IsCons(t Term) (head, tail Term, ok bool) {
	f, isF := t.(*Functor)
	if !isF || f.Sym != ListSym || len(f.Args) != 2 {
		return nil, nil, false
	}
	return f.Args[0], f.Args[1], true
}

// MaxVar returns the largest variable index occurring in t, or -1 if t
// contains no variables. Unnumbered variables are treated as index 0 (they
// still make the term non-ground).
func MaxVar(t Term) int {
	switch x := t.(type) {
	case *Var:
		if x.Index < 0 {
			return 0
		}
		return x.Index
	case *Functor:
		if mv := atomic.LoadInt32(&x.maxVar); mv != maxVarUnknown {
			return int(mv)
		}
		m := -1
		for _, a := range x.Args {
			if v := MaxVar(a); v > m {
				m = v
			}
		}
		atomic.StoreInt32(&x.maxVar, int32(m))
		return m
	default:
		return -1
	}
}

// IsGround reports whether t contains no variables at all (independent of
// any binding environment).
func IsGround(t Term) bool { return MaxVar(t) == -1 }

// NumVarSlots returns one more than the largest variable index in the given
// argument list, i.e. the environment size needed for a canonical fact.
func NumVarSlots(args []Term) int {
	m := -1
	for _, a := range args {
		if v := MaxVar(a); v > m {
			m = v
		}
	}
	return m + 1
}

// String implements Term. Lists print in [a,b|T] notation, other functors
// as sym(arg,...).
func (f *Functor) String() string {
	var b strings.Builder
	writeFunctor(&b, f)
	return b.String()
}

func writeFunctor(b *strings.Builder, f *Functor) {
	if f.Sym == ListSym && len(f.Args) == 2 {
		writeList(b, f)
		return
	}
	// Binary arithmetic prints infix and parenthesized, which the parser's
	// expression grammar reparses to the identical tree; the prefix form
	// +(Y, 1) would not be accepted back.
	if len(f.Args) == 2 {
		switch f.Sym {
		case "+", "-", "*", "/", "mod":
			b.WriteByte('(')
			b.WriteString(f.Args[0].String())
			b.WriteByte(' ')
			b.WriteString(f.Sym)
			b.WriteByte(' ')
			b.WriteString(f.Args[1].String())
			b.WriteByte(')')
			return
		}
	}
	writeAtomName(b, f.Sym)
	if len(f.Args) == 0 {
		return
	}
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
}

func writeList(b *strings.Builder, f *Functor) {
	b.WriteByte('[')
	t := Term(f)
	first := true
	for {
		h, tl, ok := IsCons(t)
		if !ok {
			break
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(h.String())
		t = tl
	}
	if !IsNil(t) {
		b.WriteByte('|')
		b.WriteString(t.String())
	}
	b.WriteByte(']')
}

// QuoteAtom renders sym the way the parser reads it back: bare when it is
// a plain identifier, quoted otherwise. The ast printers use it for
// predicate names that are not plain identifiers (e.g. a literal whose
// predicate is an operator symbol).
func QuoteAtom(sym string) string {
	var b strings.Builder
	writeAtomName(&b, sym)
	return b.String()
}

// writeAtomName writes sym, quoting it if it is not a plain identifier.
func writeAtomName(b *strings.Builder, sym string) {
	if isPlainAtom(sym) {
		b.WriteString(sym)
		return
	}
	b.WriteByte('\'')
	for _, r := range sym {
		if r == '\'' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('\'')
}

func isPlainAtom(sym string) bool {
	if sym == "" {
		return false
	}
	// The nil atom prints bare ([] reparses as itself). Operator symbols do
	// not: outside the infix arithmetic form (writeFunctor) the parser only
	// accepts them in term position when quoted. "mod" is alphabetic and
	// falls through to the identifier rule below.
	switch sym {
	case NilSym:
		return true
	}
	for i, r := range sym {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_':
		case i > 0 && (r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'):
		default:
			return false
		}
	}
	c := sym[0]
	return c >= 'a' && c <= 'z'
}
