package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"coral"
)

// answerSet is a query answer in order-independent form: one key per row,
// rows rendered with Term.String, the same syntax the server returns.
type answerSet map[string]struct{}

// digest is an order-independent fingerprint of an answer: row count and
// the wrapping sum of the rows' FNV-64a hashes.
type digest struct {
	N   int
	Sum uint64
}

func rowKey(row []string) string { return strings.Join(row, "\x1f") }

func hashRow(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func digestRows(rows [][]string) digest {
	d := digest{N: len(rows)}
	for _, r := range rows {
		d.Sum += hashRow(rowKey(r))
	}
	return d
}

func renderTuples(ts []coral.Tuple) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t))
		for j, a := range t {
			row[j] = a.String()
		}
		out[i] = row
	}
	return out
}

func setOf(rows [][]string) answerSet {
	s := make(answerSet, len(rows))
	for _, r := range rows {
		s[rowKey(r)] = struct{}{}
	}
	return s
}

func (s answerSet) digest() digest {
	d := digest{N: len(s)}
	for k := range s {
		d.Sum += hashRow(k)
	}
	return d
}

// subset reports whether every row of a is in b.
func (a answerSet) subset(b answerSet) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// reference answers queries on the single-caller path (System.Query) of a
// System of its own. For the served hierarchy the reference declares an
// index on edge's first argument, so it evaluates with another plan than
// the unindexed server it checks.
type reference struct {
	sys   *coral.System
	memo  map[string]answerSet
	wrong string // a query whose answer is deliberately corrupted (self-test)
}

func newReference(program string, indexEdge bool) (*reference, error) {
	sys := coral.New()
	if _, err := sys.Consult(program); err != nil {
		return nil, fmt.Errorf("reference consult: %w", err)
	}
	if indexEdge {
		rel, err := sys.BaseRelation("edge", 2)
		if err != nil {
			return nil, fmt.Errorf("reference edge: %w", err)
		}
		if err := rel.MakeIndex(0); err != nil {
			return nil, fmt.Errorf("reference index: %w", err)
		}
	}
	return &reference{sys: sys, memo: make(map[string]answerSet)}, nil
}

// answer returns the reference answer of q in the reference's current
// state, memoized until the next load.
func (r *reference) answer(q string) (answerSet, error) {
	if s, ok := r.memo[q]; ok {
		return s, nil
	}
	ans, err := r.sys.Query(q)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", q, err)
	}
	s := setOf(renderTuples(ans.Tuples))
	if q == r.wrong {
		// An impossible extra row: the checked answer can never match.
		s["\x00injected"] = struct{}{}
	}
	r.memo[q] = s
	return s, nil
}

// load applies a load program and forgets memoized answers.
func (r *reference) load(program string) error {
	if _, err := r.sys.Consult(program); err != nil {
		return fmt.Errorf("reference load: %w", err)
	}
	r.memo = make(map[string]answerSet)
	return nil
}
