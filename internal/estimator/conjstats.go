package estimator

import (
	"fmt"
	"math"
	"sort"

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
// deterministic across collector window sizes. Exactly two distinct
// attributes are supported: the store records pairwise joints only.

// conjJoint resolves the joint distribution and per-attribute weights for a
// two-predicate conjunction, aligning the predicates with the pair's (A, B)
// order.
func (e *Estimator) conjJoint(st *Statistics, preds []Predicate) (j *JointStats, wA, wB func(string) float64, err error) {
	if len(preds) != 2 {
		return nil, nil, nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: conjunctions over statistics support exactly two distinct attributes, got %d; query the view with -in/-col instead", len(preds))
	}
	pa, pb := preds[0], preds[1]
	if pa.Attr == pb.Attr {
		return nil, nil, nil, fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pa.Attr)
	}
	if pb.Attr < pa.Attr {
		pa, pb = pb, pa
	}
	j, ok := st.Joint(pa.Attr, pb.Attr)
	if !ok {
		return nil, nil, nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: statistics record no joint distribution for %q and %q; re-run 'privateclean stats' with -conj %s,%s, or query the view with -in/-col",
			pa.Attr, pb.Attr, pa.Attr, pb.Attr)
	}
	weight := func(pred Predicate) (func(string) float64, error) {
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
	if wA, err = weight(pa); err != nil {
		return nil, nil, nil, err
	}
	if wB, err = weight(pb); err != nil {
		return nil, nil, nil, err
	}
	return j, wA, wB, nil
}

// conjStatsAccumulate folds the joint cells into the conjunction count/sum
// statistics, mirroring patternTable.statistics over match patterns.
// agg == "" accumulates the count terms only.
func conjStatsAccumulate(j *JointStats, wA, wB func(string) float64, agg string, rows int) (count, sum, countVar, sumVar float64) {
	var cAcc, hAcc, c2Acc, h2Acc float64
	var sumRows float64
	vas := make([]string, 0, len(j.Cells))
	for va := range j.Cells {
		vas = append(vas, va)
	}
	sort.Strings(vas)
	for _, va := range vas {
		row := j.Cells[va]
		wa := wA(va)
		vbs := make([]string, 0, len(row))
		for vb := range row {
			vbs = append(vbs, vb)
		}
		sort.Strings(vbs)
		for _, vb := range vbs {
			cell := row[vb]
			w := wa * wB(vb)
			n := float64(cell.Count)
			cAcc += w * n
			c2Acc += w * w * n
			if agg != "" {
				hAcc += w * cell.Sums[agg]
				h2Acc += w * w * cell.SumSqs[agg]
				sumRows += float64(cell.NonNaN[agg])
			}
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
	j, match, err := directConjJoint(st, preds)
	if err != nil {
		return 0, err
	}
	n := 0
	for va, row := range j.Cells {
		for vb, cell := range row {
			if match(va, vb) {
				n += cell.Count
			}
		}
	}
	return float64(n), nil
}

// DirectSumConjStats is the nominal conjunction sum from the joint,
// accumulated in sorted cell order.
func DirectSumConjStats(st *Statistics, agg string, preds ...Predicate) (float64, error) {
	j, match, err := directConjJoint(st, preds)
	if err != nil {
		return 0, err
	}
	if _, err := st.moments(agg); err != nil {
		return 0, err
	}
	vas := make([]string, 0, len(j.Cells))
	for va := range j.Cells {
		vas = append(vas, va)
	}
	sort.Strings(vas)
	sum := 0.0
	for _, va := range vas {
		row := j.Cells[va]
		vbs := make([]string, 0, len(row))
		for vb := range row {
			vbs = append(vbs, vb)
		}
		sort.Strings(vbs)
		for _, vb := range vbs {
			if match(va, vb) {
				sum += row[vb].Sums[agg]
			}
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

// directConjJoint resolves the joint and a cell-match function for the
// Direct variants, with the same pair normalization as conjJoint.
func directConjJoint(st *Statistics, preds []Predicate) (*JointStats, func(va, vb string) bool, error) {
	if len(preds) != 2 {
		return nil, nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: conjunctions over statistics support exactly two distinct attributes, got %d; query the view with -in/-col instead", len(preds))
	}
	pa, pb := preds[0], preds[1]
	if pa.Attr == pb.Attr {
		return nil, nil, fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pa.Attr)
	}
	if pb.Attr < pa.Attr {
		pa, pb = pb, pa
	}
	j, ok := st.Joint(pa.Attr, pb.Attr)
	if !ok {
		return nil, nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: statistics record no joint distribution for %q and %q; re-run 'privateclean stats' with -conj %s,%s, or query the view with -in/-col",
			pa.Attr, pb.Attr, pa.Attr, pb.Attr)
	}
	return j, func(va, vb string) bool {
		return (pa.Match == nil || pa.Match(va)) && (pb.Match == nil || pb.Match(vb))
	}, nil
}
