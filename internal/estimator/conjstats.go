package estimator

import (
	"fmt"
	"math"

	"privateclean/internal/faults"
	"privateclean/internal/stats"
)

// Conjunction estimation over sufficient statistics. The resident-path
// estimator (conjunction.go) weights each row by the product of
// per-attribute inverse-channel weights, summed per match pattern; the
// weight of a row depends only on the pair of observed discrete values, so
// a recorded pairwise joint distribution (JointStats, the -conj spec)
// carries everything the same estimator needs:
//
//	ĉ = Σ_cells w(va)·w(vb)·count(va,vb)
//	ĥ = Σ_cells w(va)·w(vb)·sums[agg](va,vb)
//
// with the identical CLT variances — Σw²·x² aggregates through the recorded
// squared sums. Cells are folded in sorted (va, vb) order so the result is
// deterministic across collector window sizes; the order is built once per
// statistics (statsview.go), not per query. Exactly two distinct
// attributes are supported: the store records pairwise joints only.

// conjPair resolves the recorded joint for a two-predicate conjunction and
// returns the predicates aligned with the pair's (A, B) order.
func conjPair(st *Statistics, preds []Predicate) (jv *jointView, pa, pb Predicate, err error) {
	if len(preds) != 2 {
		return nil, pa, pb, faults.Errorf(faults.ErrBadQuery,
			"estimator: conjunctions over statistics support exactly two distinct attributes, got %d; query the view with -in/-col instead", len(preds))
	}
	pa, pb = preds[0], preds[1]
	if pa.Attr == pb.Attr {
		return nil, pa, pb, fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pa.Attr)
	}
	if pb.Attr < pa.Attr {
		pa, pb = pb, pa
	}
	jv, ok := st.joint(pa.Attr, pb.Attr)
	if !ok {
		return nil, pa, pb, faults.Errorf(faults.ErrBadQuery,
			"estimator: statistics record no joint distribution for %q and %q; re-run 'privateclean stats' with -conj %s,%s, or query the view with -in/-col",
			pa.Attr, pb.Attr, pa.Attr, pb.Attr)
	}
	return jv, pa, pb, nil
}

// conjJoint resolves the joint and per-attribute weights for a
// two-predicate conjunction.
func (e *Estimator) conjJoint(st *Statistics, preds []Predicate) (jv *jointView, wA, wB func(string) float64, err error) {
	jv, pa, pb, err := conjPair(st, preds)
	if err != nil {
		return nil, nil, nil, err
	}
	if wA, err = e.conjWeight(pa); err != nil {
		return nil, nil, nil, err
	}
	if wB, err = e.conjWeight(pb); err != nil {
		return nil, nil, nil, err
	}
	return jv, wA, wB, nil
}

// conjWeight returns the inverse-channel weight of an observed value of
// pred's attribute: (1−τ_n)/(τ_p−τ_n) when it matches, −τ_n/(τ_p−τ_n) when
// not.
func (e *Estimator) conjWeight(pred Predicate) (func(string) float64, error) {
	ch, err := e.channel(pred)
	if err != nil {
		return nil, err
	}
	if ch.denom <= 0 {
		return nil, fmt.Errorf("estimator: p = %v on %q leaves no signal to invert", ch.p, pred.Attr)
	}
	wTrue := (1 - ch.tauN) / ch.denom
	wFalse := -ch.tauN / ch.denom
	match := pred.Match
	return func(v string) float64 {
		if match == nil || match(v) {
			return wTrue
		}
		return wFalse
	}, nil
}

// weights evaluates f once per distinct value.
func weights(vals []string, f func(string) float64) []float64 {
	w := make([]float64, len(vals))
	for k, v := range vals {
		w[k] = f(v)
	}
	return w
}

// conjStatsAccumulate folds the joint cells into the conjunction count/sum
// statistics, mirroring patternTable.statistics over match patterns. Cells
// are folded in sorted (va, vb) order with each side's weight evaluated
// once per distinct value. agg == "" accumulates the count terms only; an
// aggregate the joint never recorded adds only zero terms, so it is
// skipped.
func conjStatsAccumulate(jv *jointView, wA, wB func(string) float64, agg string, rows int) (count, sum, countVar, sumVar float64) {
	var cAcc, hAcc, c2Acc, h2Acc float64
	var sumRows float64
	wa, wb := weights(jv.aVals, wA), weights(jv.bVals, wB)
	var sums, sumSqs []float64
	var nonNaN []int
	if agg != "" {
		sums, sumSqs, nonNaN = jv.j.aggregate(agg)
	}
	counts := jv.j.counts
	for k, i := range jv.cells {
		w := wa[jv.aPos[k]] * wb[jv.bPos[k]]
		n := float64(counts[i])
		cAcc += w * n
		c2Acc += w * w * n
		if sums != nil {
			hAcc += w * sums[i]
			h2Acc += w * w * sumSqs[i]
			sumRows += float64(nonNaN[i])
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

// CountConjStats is CountConj over sufficient statistics: count(1) under a
// two-attribute conjunction, answered from the recorded pairwise joint.
func (e *Estimator) CountConjStats(st *Statistics, preds ...Predicate) (Estimate, error) {
	j, wA, wB, err := e.conjJoint(st, preds)
	if err != nil {
		return Estimate{}, err
	}
	if st.Rows == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	count, _, countVar, _ := conjStatsAccumulate(j, wA, wB, "", st.Rows)
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Value: count, CI: z * math.Sqrt(countVar)}, nil
}

// SumConjStats is SumConj over sufficient statistics.
func (e *Estimator) SumConjStats(st *Statistics, agg string, preds ...Predicate) (Estimate, error) {
	j, wA, wB, err := e.conjJoint(st, preds)
	if err != nil {
		return Estimate{}, err
	}
	if st.Rows == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	if _, err := st.moments(agg); err != nil {
		return Estimate{}, err
	}
	_, sum, _, sumVar := conjStatsAccumulate(j, wA, wB, agg, st.Rows)
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Value: sum, CI: z * math.Sqrt(sumVar)}, nil
}

// AvgConjStats is AvgConj over sufficient statistics: the ratio of
// SumConjStats and CountConjStats with a delta-method interval.
func (e *Estimator) AvgConjStats(st *Statistics, agg string, preds ...Predicate) (Estimate, error) {
	h, err := e.SumConjStats(st, agg, preds...)
	if err != nil {
		return Estimate{}, err
	}
	c, err := e.CountConjStats(st, preds...)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// DirectCountConjStats is the nominal conjunction count from the joint.
func DirectCountConjStats(st *Statistics, preds ...Predicate) (float64, error) {
	jv, inA, inB, err := directConjJoint(st, preds)
	if err != nil {
		return 0, err
	}
	n := 0
	for k, i := range jv.cells {
		if inA[jv.aPos[k]] && inB[jv.bPos[k]] {
			n += jv.j.counts[i]
		}
	}
	return float64(n), nil
}

// DirectSumConjStats is the nominal conjunction sum from the joint,
// accumulated in sorted cell order.
func DirectSumConjStats(st *Statistics, agg string, preds ...Predicate) (float64, error) {
	jv, inA, inB, err := directConjJoint(st, preds)
	if err != nil {
		return 0, err
	}
	if _, err := st.moments(agg); err != nil {
		return 0, err
	}
	sums, _, _ := jv.j.aggregate(agg)
	sum := 0.0
	if sums == nil {
		return sum, nil
	}
	for k, i := range jv.cells {
		if inA[jv.aPos[k]] && inB[jv.bPos[k]] {
			sum += sums[i]
		}
	}
	return sum, nil
}

// DirectAvgConjStats is the nominal conjunction average from the joint.
func DirectAvgConjStats(st *Statistics, agg string, preds ...Predicate) (float64, error) {
	c, err := DirectCountConjStats(st, preds...)
	if err != nil {
		return 0, err
	}
	if c == 0 {
		return 0, fmt.Errorf("estimator: no rows satisfy the conjunction")
	}
	s, err := DirectSumConjStats(st, agg, preds...)
	if err != nil {
		return 0, err
	}
	return s / c, nil
}

// directConjJoint resolves the joint for the Direct variants, with each
// side's match evaluated once per distinct value.
func directConjJoint(st *Statistics, preds []Predicate) (jv *jointView, inA, inB []bool, err error) {
	jv, pa, pb, err := conjPair(st, preds)
	if err != nil {
		return nil, nil, nil, err
	}
	matches := func(vals []string, match func(string) bool) []bool {
		in := make([]bool, len(vals))
		for k, v := range vals {
			in[k] = match == nil || match(v)
		}
		return in
	}
	return jv, matches(jv.aVals, pa.Match), matches(jv.bVals, pb.Match), nil
}
