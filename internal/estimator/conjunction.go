package estimator

import (
	"fmt"
	"math"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the Section 10 "Aggregates over Select-Project-Join
// Views" extension for conjunctive predicates over several discrete
// attributes:
//
//	SELECT agg(a) FROM R WHERE cond(d_1) AND cond(d_2) AND ...
//
// GRR randomizes each attribute independently, so the response channel of
// the conjunction is the tensor product of the per-attribute channels, and
// the bias-correction constants multiply (the paper: "for each column in
// the view, we essentially can calculate the constants and multiply them
// together").
//
// Implementation: for each attribute i the inverse channel assigns a row
// the weight
//
//	w_i = (1 − τ_n,i)/(1 − p_i)  if the private row satisfies cond_i
//	w_i = −τ_n,i/(1 − p_i)       otherwise
//
// which has expectation 1 when the *true* row satisfies cond_i and 0
// otherwise. The product of the per-attribute weights therefore has
// expectation exactly 1 on rows truly satisfying the conjunction, making
//
//	ĉ = Σ_rows Π_i w_i       and      ĥ = Σ_rows (Π_i w_i)·a(row)
//
// unbiased estimators of the conjunction's count and sum. Confidence
// intervals use the CLT over the iid per-row weight terms.
//
// A row's weight depends only on its match pattern — which of the k
// predicates its private values satisfy — so there are just 2^k distinct
// weights. The rows are summarized once into a patternTable (rows per
// pattern, and Σx, Σx² and non-NaN rows of the aggregate per pattern), and
// the estimators evaluate
//
//	ĉ = Σ_p n_p·w_p      ĥ = Σ_p w_p·Σx_p      Σw² terms likewise
//
// over the observed patterns in a fixed order: the form the statistics
// path (conjstats.go) uses over joint cells. The cached and uncached paths
// share this evaluation, so they agree bit for bit; against the per-row sum
// the result differs only by float re-association.

// conjChannel holds one predicate's inverse-channel weights.
type conjChannel struct {
	wTrue  float64 // weight when the private value satisfies the predicate
	wFalse float64 // weight otherwise
}

// maxConjPreds is the most predicates a conjunction may have: a match
// pattern is a uint64 with one bit per predicate.
const maxConjPreds = 64

// checkConjArity rejects conjunctions with no operand or more operands than
// a pattern has bits.
func checkConjArity(preds []Predicate) error {
	if len(preds) == 0 {
		return fmt.Errorf("estimator: conjunction needs at least one predicate")
	}
	if len(preds) > maxConjPreds {
		return faults.Errorf(faults.ErrBadQuery, "estimator: conjunction over %d attributes exceeds the supported %d", len(preds), maxConjPreds)
	}
	return nil
}

func (e *Estimator) conjChannels(preds []Predicate) ([]conjChannel, error) {
	if err := checkConjArity(preds); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(preds))
	chans := make([]conjChannel, len(preds))
	for i, pred := range preds {
		if seen[pred.Attr] {
			return nil, fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pred.Attr)
		}
		seen[pred.Attr] = true
		// The nil-means-match-all predicate contract holds here too: channel
		// resolves l = N for it and its compiled selection matches every
		// row, so the weights come out right.
		ch, err := e.channel(pred)
		if err != nil {
			return nil, err
		}
		if ch.denom <= 0 {
			return nil, fmt.Errorf("estimator: p = %v on %q leaves no signal to invert", ch.p, pred.Attr)
		}
		chans[i] = conjChannel{
			wTrue:  (1 - ch.tauN) / ch.denom,
			wFalse: -ch.tauN / ch.denom,
		}
	}
	return chans, nil
}

// patternTable summarizes a relation's rows by match pattern: bit i of a
// pattern is set when the row's private value satisfies predicate i. Only
// observed patterns are kept: in ascending order when the accumulators are
// dense, in first-seen row order otherwise — either way a function of the
// rows alone. It is immutable once built, so a ChannelCache can share one
// instance across readers.
type patternTable struct {
	pats []uint64
	n    []float64 // rows per pattern
	// Sum tables only (nil for count-only tables): per pattern, the rows
	// with a non-NaN aggregate cell and the Σx and Σx² over them.
	nn, sx, sx2 []float64
}

// maxDenseBits bounds the dense pattern accumulators (2^16 slots);
// conjunctions over more predicates accumulate only their observed patterns,
// through a map.
const maxDenseBits = 16

// patternChunk is how many rows buildPatternTable assembles patterns for at
// a time.
const patternChunk = 256

// buildPatternTable scans the rows once, in ascending order. Each
// predicate's compiled selection becomes a per-code table of the pattern bit
// it contributes, so a row's pattern is k table loads ORed together. vals
// may be nil for count-only tables.
func buildPatternTable(ixs []*relation.DiscreteIndex, preds []Predicate, vals []float64, rows int) *patternTable {
	bitOf := make([][]uint64, len(preds))
	for i, pred := range preds {
		bitOf[i] = selectionBits(ixs[i], compileSelection(ixs[i], pred), 1<<uint(i))
	}
	t := &patternTable{}
	var slots map[uint64]int // pattern -> slot; nil while dense
	if len(preds) <= maxDenseBits {
		// One slot per possible pattern, in ascending order.
		size := 1 << len(preds)
		t.pats = make([]uint64, size)
		for p := range t.pats {
			t.pats[p] = uint64(p)
		}
		t.n = make([]float64, size)
		if vals != nil {
			t.nn, t.sx, t.sx2 = make([]float64, size), make([]float64, size), make([]float64, size)
		}
	} else {
		slots = make(map[uint64]int)
	}
	var chunk [patternChunk]uint64
	for base := 0; base < rows; base += patternChunk {
		pats := chunk[:min(patternChunk, rows-base)]
		clear(pats)
		for i, bits := range bitOf {
			for r, c := range ixs[i].Codes[base : base+len(pats)] {
				pats[r] |= bits[c]
			}
		}
		for r, p := range pats {
			j := int(p)
			if slots != nil {
				var ok bool
				if j, ok = slots[p]; !ok {
					j = t.grow(p, vals != nil)
					slots[p] = j
				}
			}
			t.n[j]++
			if vals == nil {
				continue
			}
			x := vals[base+r]
			if x != x { // NaN cells stay out of the sum terms
				continue
			}
			t.nn[j]++
			t.sx[j] += x
			t.sx2[j] += x * x
		}
	}
	if slots == nil {
		t.dropEmpty()
	}
	return t
}

// selectionBits expands sel into a per-code table holding bit for every
// matching code and 0 elsewhere.
func selectionBits(ix *relation.DiscreteIndex, sel selection, bit uint64) []uint64 {
	out := make([]uint64, ix.N())
	switch {
	case sel.all:
		for c := range out {
			out[c] = bit
		}
	case sel.table != nil:
		for c, in := range sel.table {
			if in {
				out[c] = bit
			}
		}
	case len(sel.codes) == 1:
		out[sel.codes[0]] = bit
	}
	return out
}

// grow appends a zeroed slot for pattern p and returns its index.
func (t *patternTable) grow(p uint64, sums bool) int {
	t.pats = append(t.pats, p)
	t.n = append(t.n, 0)
	if sums {
		t.nn, t.sx, t.sx2 = append(t.nn, 0), append(t.sx, 0), append(t.sx2, 0)
	}
	return len(t.pats) - 1
}

// dropEmpty removes the slots of unobserved patterns, keeping the order.
func (t *patternTable) dropEmpty() {
	k := 0
	for j := range t.pats {
		if t.n[j] == 0 {
			continue
		}
		t.pats[k], t.n[k] = t.pats[j], t.n[j]
		if t.sx != nil {
			t.nn[k], t.sx[k], t.sx2[k] = t.nn[j], t.sx[j], t.sx2[j]
		}
		k++
	}
	t.pats, t.n = t.pats[:k], t.n[:k]
	if t.sx != nil {
		t.nn, t.sx, t.sx2 = t.nn[:k], t.sx[:k], t.sx2[:k]
	}
}

// statistics evaluates the conjunction count/sum estimates and their CLT
// variances from the pattern table. NaN aggregate cells contribute nothing
// to the sum terms, so the sum-variance denominator counts only the rows
// that actually entered the sum.
func (t *patternTable) statistics(chans []conjChannel, rows int) (count, sum, countVar, sumVar float64) {
	var cAcc, hAcc, c2Acc, h2Acc float64
	var sumRows float64 // rows with a non-NaN aggregate cell
	for j, p := range t.pats {
		w := 1.0
		for i := range chans {
			if p>>uint(i)&1 != 0 {
				w *= chans[i].wTrue
			} else {
				w *= chans[i].wFalse
			}
		}
		n := t.n[j]
		cAcc += w * n
		c2Acc += w * w * n
		if t.sx != nil {
			sumRows += t.nn[j]
			hAcc += w * t.sx[j]
			h2Acc += w * w * t.sx2[j]
		}
	}
	s := float64(rows)
	countVar = c2Acc - cAcc*cAcc/s
	if sumRows > 0 {
		sumVar = h2Acc - hAcc*hAcc/sumRows
	}
	if countVar < 0 {
		countVar = 0
	}
	if sumVar < 0 {
		sumVar = 0
	}
	return cAcc, hAcc, countVar, sumVar
}

// conjTable returns the pattern table of preds over rel — with the sum
// terms of agg unless agg is "" — memoized when a cache is attached and
// every predicate is cacheable.
func (e *Estimator) conjTable(rel *relation.Relation, agg string, preds []Predicate) (*patternTable, error) {
	ixs, vals, err := conjInputs(rel, agg, preds)
	if err != nil {
		return nil, err
	}
	build := func() (*patternTable, error) {
		return buildPatternTable(ixs, preds, vals, rel.NumRows()), nil
	}
	if e.Cache == nil || len(preds) > maxConjMemo {
		return build()
	}
	key := conjKey{k: len(preds), agg: agg}
	deps := conjDeps{col: colIdentity(vals)}
	for i, pred := range preds {
		k, cacheable := predCacheKey(pred)
		if !cacheable {
			return build()
		}
		key.preds[i] = k
		deps.ixs[i] = ixs[i]
	}
	return memoize(e.Cache, e.Cache.conjs, key, deps, build)
}

// conjInputs resolves the predicates' dictionary encodings and, unless agg
// is "", the aggregate column.
func conjInputs(rel *relation.Relation, agg string, preds []Predicate) ([]*relation.DiscreteIndex, []float64, error) {
	if err := checkConjArity(preds); err != nil {
		return nil, nil, err
	}
	ixs := make([]*relation.DiscreteIndex, len(preds))
	for i, pred := range preds {
		ix, err := rel.DiscreteIndex(pred.Attr)
		if err != nil {
			return nil, nil, err
		}
		ixs[i] = ix
	}
	if agg == "" {
		return ixs, nil, nil
	}
	vals, err := rel.Numeric(agg)
	if err != nil {
		return nil, nil, err
	}
	return ixs, vals, nil
}

// conjEstimates computes the conjunction's count estimate and, when agg is
// not "", its sum estimate, from one pattern table.
func (e *Estimator) conjEstimates(rel *relation.Relation, agg string, preds []Predicate) (count, sum Estimate, err error) {
	chans, err := e.conjChannels(preds)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	if rel.NumRows() == 0 {
		return Estimate{}, Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	t, err := e.conjTable(rel, agg, preds)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	c, h, countVar, sumVar := t.statistics(chans, rel.NumRows())
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	return Estimate{Value: c, CI: z * math.Sqrt(countVar)}, Estimate{Value: h, CI: z * math.Sqrt(sumVar)}, nil
}

// CountConj estimates count(1) under the conjunction of the given
// single-attribute predicates (each on a distinct discrete attribute).
// With one predicate it coincides with Count up to the confidence-interval
// formula.
func (e *Estimator) CountConj(rel *relation.Relation, preds ...Predicate) (Estimate, error) {
	c, _, err := e.conjEstimates(rel, "", preds)
	return c, err
}

// SumConj estimates sum(agg) under the conjunction of the given
// predicates.
func (e *Estimator) SumConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	if agg == "" {
		return Estimate{}, fmt.Errorf("estimator: sum needs an aggregate attribute")
	}
	_, h, err := e.conjEstimates(rel, agg, preds)
	return h, err
}

// AvgConj estimates avg(agg) under the conjunction as the ratio of SumConj
// and CountConj with a delta-method interval. Both come from one pattern
// table; its row counts are those of the count-only table, so the count is
// bitwise CountConj's.
func (e *Estimator) AvgConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	if agg == "" {
		return Estimate{}, fmt.Errorf("estimator: avg needs an aggregate attribute")
	}
	c, h, err := e.conjEstimates(rel, agg, preds)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// directConj returns the nominal row count of the conjunction and, unless
// agg is "", the sum of agg over those rows: the all-true pattern's entry of
// the pattern table, accumulated in ascending row order with NaN cells
// skipped.
func directConj(rel *relation.Relation, agg string, preds []Predicate) (rows, sum float64, err error) {
	ixs, vals, err := conjInputs(rel, agg, preds)
	if err != nil {
		return 0, 0, err
	}
	t := buildPatternTable(ixs, preds, vals, rel.NumRows())
	all := ^uint64(0) >> (64 - uint(len(preds)))
	for j, p := range t.pats {
		if p == all {
			if t.sx != nil {
				sum = t.sx[j]
			}
			return t.n[j], sum, nil
		}
	}
	return 0, 0, nil
}

// DirectCountConj is the nominal conjunction count.
func DirectCountConj(rel *relation.Relation, preds ...Predicate) (float64, error) {
	c, _, err := directConj(rel, "", preds)
	return c, err
}

// DirectSumConj is the nominal conjunction sum.
func DirectSumConj(rel *relation.Relation, agg string, preds ...Predicate) (float64, error) {
	if agg == "" {
		return 0, fmt.Errorf("estimator: sum needs an aggregate attribute")
	}
	_, s, err := directConj(rel, agg, preds)
	return s, err
}

// DirectAvgConj is the nominal conjunction average.
func DirectAvgConj(rel *relation.Relation, agg string, preds ...Predicate) (float64, error) {
	if agg == "" {
		return 0, fmt.Errorf("estimator: avg needs an aggregate attribute")
	}
	c, s, err := directConj(rel, agg, preds)
	if err != nil {
		return 0, err
	}
	if c == 0 {
		return 0, fmt.Errorf("estimator: no rows satisfy the conjunction")
	}
	return s / c, nil
}
