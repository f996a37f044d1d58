package relation

import (
	"fmt"

	"coral/internal/term"
)

// argIndex is the traditional multi-attribute hash index on a subset of the
// arguments of a relation (paper §3.3, "argument form indices"). Facts
// whose indexed arguments are not all ground hash to the special bucket the
// paper calls "var" and are returned on every lookup.
type argIndex struct {
	rel       *HashRelation
	positions []int
	buckets   map[uint64][]int32
	varBucket []int32
}

// MakeIndex adds an argument-form index on the given positions, indexing
// existing facts. Adding an index that already exists is a no-op (paper
// allows indices to "be added to existing relations"). An out-of-range
// position is reported as an error, leaving the relation unchanged.
func (r *HashRelation) MakeIndex(positions ...int) error {
	for _, p := range positions {
		if p < 0 || p >= r.arity {
			return fmt.Errorf("relation: %s/%d: index position %d out of range", r.name, r.arity, p)
		}
	}
	for _, ix := range r.indexes {
		if samePositions(ix.positions, positions) {
			return nil
		}
	}
	ix := &argIndex{rel: r, positions: positions, buckets: make(map[uint64][]int32)}
	for ord := range r.facts {
		// Dead facts keep postings until compaction; iterators skip them.
		ix.insert(r.facts[ord].fact, int32(ord))
	}
	r.indexes = append(r.indexes, ix)
	return nil
}

// HasIndex reports whether an argument-form index exists on exactly these
// positions.
func (r *HashRelation) HasIndex(positions ...int) bool {
	for _, ix := range r.indexes {
		if samePositions(ix.positions, positions) {
			return true
		}
	}
	return false
}

// IndexCounts returns how many argument-form and pattern-form indexes the
// relation holds — a rollback point for TruncateIndexes.
func (r *HashRelation) IndexCounts() (argForms, patForms int) {
	return len(r.indexes), len(r.patIndexes)
}

// TruncateIndexes drops every index created after the relation held
// argForms argument-form and patForms pattern-form indexes (see
// IndexCounts). Indexes only speed up lookups, so this is not a
// destructive change: Mutations does not advance, and snapshots and build
// tables over the relation stay valid.
func (r *HashRelation) TruncateIndexes(argForms, patForms int) {
	if argForms < len(r.indexes) {
		clear(r.indexes[argForms:]) // release the dropped postings
		r.indexes = r.indexes[:argForms]
	}
	if patForms < len(r.patIndexes) {
		clear(r.patIndexes[patForms:])
		r.patIndexes = r.patIndexes[:patForms]
	}
}

func samePositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ix *argIndex) insert(f Fact, ord int32) {
	h, ground := term.HashBound(f.Args, ix.positions, nil)
	if !ground {
		ix.varBucket = append(ix.varBucket, ord)
		return
	}
	ix.buckets[h] = append(ix.buckets[h], ord)
}

func (ix *argIndex) clear() {
	ix.buckets = make(map[uint64][]int32)
	ix.varBucket = nil
}

// usable reports whether every indexed position is ground in the pattern
// under env.
func (ix *argIndex) usable(pattern []term.Term, env *term.Env) bool {
	for _, p := range ix.positions {
		if !term.GroundUnder(pattern[p], env) {
			return false
		}
	}
	return true
}

// lookup returns an iterator over the matching bucket plus the var bucket.
// It reports false when the pattern is not ground at the indexed positions.
func (ix *argIndex) lookup(pattern []term.Term, env *term.Env, from, to int32) (Iterator, bool) {
	h, ground := term.HashBound(pattern, ix.positions, env)
	if !ground {
		return nil, false
	}
	return newOrdIter(ix.rel, from, to, ix.buckets[h], ix.varBucket), true
}
