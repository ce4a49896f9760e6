package estimator

import (
	"privateclean/internal/relation"
)

// This file is the vectorized predicate executor. Predicates are compiled
// once per (dictionary, predicate) pair into a selection — a description of
// the matching domain codes — and then evaluated as tight loops over the
// column's uint32 code vector, with no per-row function calls or string
// compares. The selection picks the cheapest representation for its shape:
// match-all and match-none short-circuit, an equality compares codes
// directly, anything larger indexes a per-code bool table (a branch-free
// load; faster in practice than comparing even two codes per row). Counting
// skips the row scan entirely when the dictionary carries per-code row
// counts. A ChannelCache memoizes the aggregates these kernels produce,
// never per-row state.
//
// The loops preserve the exact accumulation order of the scalar code they
// replaced (ascending row order, NaN skipped before the match branch), so
// estimates are bit-for-bit identical with and without vectorization —
// the property the colstore byte-identity tests pin down.

// selection is a compiled predicate over one dictionary encoding: which
// domain codes match. Exactly one representation is active: all, a single
// code in codes, a membership table, or none (all fields zero).
type selection struct {
	all   bool     // every code matches
	codes []uint32 // exactly one matched code
	table []bool   // per-code membership, used for 2+ matched codes
}

// compileSelection evaluates pred once per distinct domain value and picks
// the evaluation strategy. A nil Match means match-all (the package-wide
// nil-predicate contract).
func compileSelection(ix *relation.DiscreteIndex, pred Predicate) selection {
	if pred.Match == nil {
		return selection{all: true}
	}
	table := make([]bool, ix.N())
	last, nm := 0, 0
	for c, v := range ix.Domain {
		if pred.Match(v) {
			table[c] = true
			last = c
			nm++
		}
	}
	switch nm {
	case ix.N():
		return selection{all: true}
	case 0:
		return selection{}
	case 1:
		return selection{codes: []uint32{uint32(last)}}
	default:
		return selection{table: table}
	}
}

// countSelection counts the rows matching sel. With per-code counts on the
// dictionary this is an O(domain) sum; otherwise it scans the code vector.
func countSelection(ix *relation.DiscreteIndex, sel selection) int {
	if sel.all {
		return len(ix.Codes)
	}
	if ix.Counts != nil {
		switch {
		case sel.table != nil:
			n := uint32(0)
			for c, in := range sel.table {
				if in {
					n += ix.Counts[c]
				}
			}
			return int(n)
		case len(sel.codes) == 1:
			return int(ix.Counts[sel.codes[0]])
		default:
			return 0
		}
	}
	return countSelected(ix.Codes, sel)
}

// countSelected counts the rows whose code matches sel by scanning the code
// vector — the fallback for dictionaries without materialized counts.
func countSelected(codes []uint32, sel selection) int {
	n := 0
	switch {
	case sel.all:
		return len(codes)
	case sel.table != nil:
		table := sel.table
		for _, c := range codes {
			if table[c] {
				n++
			}
		}
	case len(sel.codes) == 1:
		m := sel.codes[0]
		for _, c := range codes {
			if c == m {
				n++
			}
		}
	}
	return n
}

// sumSelected accumulates vals over the selection and its complement in
// ascending row order, skipping NaN cells before the match branch — the
// exact semantics (and therefore bit-exact results) of the scalar loop it
// replaces.
func sumSelected(codes []uint32, vals []float64, sel selection) (matched, complement float64) {
	switch {
	case sel.all:
		for _, x := range vals {
			if x == x { // not NaN
				matched += x
			}
		}
	case sel.table != nil:
		table := sel.table
		for i, c := range codes {
			x := vals[i]
			if x != x {
				continue
			}
			if table[c] {
				matched += x
			} else {
				complement += x
			}
		}
	case len(sel.codes) == 1:
		m := sel.codes[0]
		for i, c := range codes {
			x := vals[i]
			if x != x {
				continue
			}
			if c == m {
				matched += x
			} else {
				complement += x
			}
		}
	default: // empty selection: everything is complement
		for _, x := range vals {
			if x == x {
				complement += x
			}
		}
	}
	return matched, complement
}

// groupAgg is the result of one GROUP BY pass: per-code row counts and
// aggregate sums, and the column's row-order total. It is immutable once
// built, so a ChannelCache can share one instance across readers.
type groupAgg struct {
	counts []int
	sums   []float64
	total  float64
}

// groupAggregates is the one-pass GROUP BY kernel over a dictionary-coded
// column: per-code row counts and per-code aggregate sums, plus the
// column's row-order total, in a single scan of the code vector. NaN
// aggregate cells are skipped before the code dispatch, matching the scalar
// loops. GroupSums/GroupAvgs build every group's (h_p, h_p^c, c_priv) from
// this one pass instead of re-scanning the relation once per distinct
// value; the complement sum total − sums[c] re-associates the additions
// relative to a per-value scan, which moves estimates by float rounding
// (~1e-16 relative), the same caveat the statistics path documents.
func groupAggregates(ix *relation.DiscreteIndex, vals []float64) *groupAgg {
	counts := make([]int, ix.N())
	sums := make([]float64, ix.N())
	total := 0.0
	if ix.Counts != nil {
		for c, n := range ix.Counts {
			counts[c] = int(n)
		}
	} else {
		for _, c := range ix.Codes {
			counts[c]++
		}
	}
	for i, c := range ix.Codes {
		x := vals[i]
		if x != x {
			continue
		}
		sums[c] += x
		total += x
	}
	return &groupAgg{counts: counts, sums: sums, total: total}
}
