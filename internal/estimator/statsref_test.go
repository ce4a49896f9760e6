package estimator

// Reference identity of the statistics query path: the *Stats and
// Direct*Stats estimators read a sorted, dense view built once per
// Statistics, and must answer bit for bit what the map-and-sort kernels
// they replaced answered. Those kernels are kept below, over joints laid
// out as maps of maps and built straight from the rows.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// wireCell and wireJoint are the map layout of JointStats, as the
// statistics JSON spells it and as joints were held in memory before they
// were stored densely.
type wireCell struct {
	Count  int                `json:"count"`
	Sums   map[string]float64 `json:"sums,omitempty"`
	SumSqs map[string]float64 `json:"sumsqs,omitempty"`
	NonNaN map[string]int     `json:"nonnan,omitempty"`
}

type wireJoint struct {
	A     string                          `json:"a"`
	B     string                          `json:"b"`
	Cells map[string]map[string]*wireCell `json:"cells"`
}

// wireStatistics is Statistics with map-layout joints.
type wireStatistics struct {
	Rows     int                               `json:"rows"`
	Columns  []relation.Column                 `json:"columns"`
	Discrete map[string]map[string]*ValueStats `json:"discrete"`
	Numeric  map[string]Moments                `json:"numeric"`
	Hist     map[string]*Histogram             `json:"hist,omitempty"`
	Joints   map[string]*wireJoint             `json:"joints,omitempty"`
}

// refJoint accumulates the joint of attributes a and b over the rows the
// way the map-layout collector did: cells created on first sight, aggregate
// entries only for non-NaN cells.
func refJoint(rel *relation.Relation, a, b string) *wireJoint {
	j := &wireJoint{A: a, B: b, Cells: map[string]map[string]*wireCell{}}
	colA, colB := rel.MustDiscrete(a), rel.MustDiscrete(b)
	numeric := rel.Schema().NumericNames()
	for i := range colA {
		row := j.Cells[colA[i]]
		if row == nil {
			row = map[string]*wireCell{}
			j.Cells[colA[i]] = row
		}
		cell := row[colB[i]]
		if cell == nil {
			cell = &wireCell{Sums: map[string]float64{}, SumSqs: map[string]float64{}, NonNaN: map[string]int{}}
			row[colB[i]] = cell
		}
		cell.Count++
		for _, na := range numeric {
			if x := rel.MustNumeric(na)[i]; !math.IsNaN(x) {
				cell.Sums[na] += x
				cell.SumSqs[na] += x * x
				cell.NonNaN[na]++
			}
		}
	}
	return j
}

// refStats is what the reference kernels read: the statistics' value
// marginals, moments and histograms, with map-layout joints.
type refStats struct {
	st     *Statistics
	joints map[[2]string]*wireJoint
}

func (r refStats) countMatches(pred Predicate) (int, error) {
	vs, ok := r.st.Discrete[pred.Attr]
	if !ok {
		return 0, fmt.Errorf("estimator: no statistics for discrete attribute %q", pred.Attr)
	}
	n := 0
	for v, s := range vs {
		if pred.Match == nil || pred.Match(v) {
			n += s.Count
		}
	}
	return n, nil
}

func (r refStats) sortedDomain(attr string) ([]string, error) {
	vs, ok := r.st.Discrete[attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no statistics for discrete attribute %q", attr)
	}
	domain := make([]string, 0, len(vs))
	for v := range vs {
		domain = append(domain, v)
	}
	sort.Strings(domain)
	return domain, nil
}

func (r refStats) sumMatches(agg string, pred Predicate) (matched, complement float64, err error) {
	domain, err := r.sortedDomain(pred.Attr)
	if err != nil {
		return 0, 0, err
	}
	if _, err := r.st.moments(agg); err != nil {
		return 0, 0, err
	}
	for _, v := range domain {
		x := r.st.Discrete[pred.Attr][v].Sums[agg]
		if pred.Match == nil || pred.Match(v) {
			matched += x
		} else {
			complement += x
		}
	}
	return matched, complement, nil
}

func (r refStats) binnedMatched(h *Histogram, agg string, pred Predicate) ([]float64, error) {
	domain, err := r.sortedDomain(pred.Attr)
	if err != nil {
		return nil, err
	}
	matched := make([]float64, len(h.Counts))
	for _, v := range domain {
		if pred.Match != nil && !pred.Match(v) {
			continue
		}
		for k, c := range r.st.Discrete[pred.Attr][v].Bins[agg] {
			matched[k] += float64(c)
		}
	}
	return matched, nil
}

// conjJoint resolves the map-layout joint with the production pair rules.
func (r refStats) conjJoint(preds []Predicate) (*wireJoint, Predicate, Predicate, error) {
	_, pa, pb, err := conjPair(r.st, preds)
	if err != nil {
		return nil, pa, pb, err
	}
	return r.joints[[2]string{pa.Attr, pb.Attr}], pa, pb, nil
}

func refConjAccumulate(j *wireJoint, wA, wB func(string) float64, agg string, rows int) (count, sum, countVar, sumVar float64) {
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

// The reference estimators: the pre-view bodies over the kernels above.

func (r refStats) count(e *Estimator, pred Predicate) (Estimate, error) {
	ch, err := e.channel(pred)
	if err != nil {
		return Estimate{}, err
	}
	if ch.denom <= 0 {
		return Estimate{}, fmt.Errorf("estimator: p = %v leaves no signal to invert (τ_p = τ_n)", ch.p)
	}
	c, err := r.countMatches(pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.countEstimate(ch, float64(c), float64(r.st.Rows))
}

func (r refStats) sum(e *Estimator, agg string, pred Predicate) (Estimate, error) {
	ch, err := e.channel(pred)
	if err != nil {
		return Estimate{}, err
	}
	if ch.denom <= 0 {
		return Estimate{}, fmt.Errorf("estimator: p = %v leaves no signal to invert (τ_p = τ_n)", ch.p)
	}
	hp, hpc, err := r.sumMatches(agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if r.st.Rows == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	c, err := r.countMatches(pred)
	if err != nil {
		return Estimate{}, err
	}
	m, err := r.st.moments(agg)
	if err != nil {
		return Estimate{}, err
	}
	mu, err := m.mean()
	if err != nil {
		return Estimate{}, err
	}
	v, err := m.variance()
	if err != nil {
		return Estimate{}, err
	}
	return e.sumEstimate(ch, hp, hpc, float64(c), float64(r.st.Rows), mu, v)
}

func (r refStats) avg(e *Estimator, agg string, pred Predicate) (Estimate, error) {
	h, err := r.sum(e, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	c, err := r.count(e, pred)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for %s", ErrZeroEstimatedCount, pred)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// group runs one per-value reference estimator over the sorted domain;
// skipZero omits ErrZeroEstimatedCount groups as GroupAvgs does.
func (r refStats) group(attr string, skipZero bool, one func(Predicate) (Estimate, error)) (map[string]Estimate, error) {
	domain, err := r.sortedDomain(attr)
	if err != nil {
		return nil, err
	}
	out := map[string]Estimate{}
	for _, v := range domain {
		est, err := one(Eq(attr, v))
		if err != nil {
			if skipZero && errors.Is(err, ErrZeroEstimatedCount) {
				continue
			}
			return nil, err
		}
		out[v] = est
	}
	if skipZero && len(out) == 0 {
		return nil, fmt.Errorf("estimator: no group of %q has a nonzero estimated count", attr)
	}
	return out, nil
}

func (r refStats) percentile(e *Estimator, agg string, pred Predicate, q float64) (Estimate, error) {
	h, err := r.st.histogram(agg)
	if err != nil {
		return Estimate{}, err
	}
	return e.binnedQuantile(h, pred, q, func() ([]float64, error) { return r.binnedMatched(h, agg, pred) })
}

func (r refStats) directPercentile(agg string, pred Predicate, q float64) (float64, error) {
	h, err := r.st.histogram(agg)
	if err != nil {
		return 0, err
	}
	var counts []float64
	if pred.Attr == "" {
		for _, c := range h.Counts {
			counts = append(counts, float64(c))
		}
	} else if counts, err = r.binnedMatched(h, agg, pred); err != nil {
		return 0, err
	}
	return stats.HistQuantile(h.Edges, counts, q)
}

func (r refStats) groupBinCounts(e *Estimator, attr string) ([]BinEstimate, error) {
	h, err := r.st.histogram(attr)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return e.binCountEstimates(h.Edges, h.Counts, n)
}

func (r refStats) conj(e *Estimator, agg string, preds []Predicate) (count, sum Estimate, err error) {
	j, pa, pb, err := r.conjJoint(preds)
	if err != nil {
		return count, sum, err
	}
	wA, err := e.conjWeight(pa)
	if err != nil {
		return count, sum, err
	}
	wB, err := e.conjWeight(pb)
	if err != nil {
		return count, sum, err
	}
	if r.st.Rows == 0 {
		return count, sum, fmt.Errorf("estimator: empty relation")
	}
	if agg != "" {
		if _, err := r.st.moments(agg); err != nil {
			return count, sum, err
		}
	}
	c, s, cv, sv := refConjAccumulate(j, wA, wB, agg, r.st.Rows)
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return count, sum, err
	}
	return Estimate{Value: c, CI: z * math.Sqrt(cv)}, Estimate{Value: s, CI: z * math.Sqrt(sv)}, nil
}

func (r refStats) avgConj(e *Estimator, agg string, preds []Predicate) (Estimate, error) {
	_, h, err := r.conj(e, agg, preds)
	if err != nil {
		return Estimate{}, err
	}
	c, _, err := r.conj(e, "", preds)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

func (r refStats) directConj(agg string, preds []Predicate) (count, sum float64, err error) {
	j, pa, pb, err := r.conjJoint(preds)
	if err != nil {
		return 0, 0, err
	}
	if agg != "" {
		if _, err := r.st.moments(agg); err != nil {
			return 0, 0, err
		}
	}
	match := func(va, vb string) bool {
		return (pa.Match == nil || pa.Match(va)) && (pb.Match == nil || pb.Match(vb))
	}
	n := 0
	for va, row := range j.Cells {
		for vb, cell := range row {
			if match(va, vb) {
				n += cell.Count
			}
		}
	}
	vas := make([]string, 0, len(j.Cells))
	for va := range j.Cells {
		vas = append(vas, va)
	}
	sort.Strings(vas)
	for _, va := range vas {
		vbs := make([]string, 0, len(j.Cells[va]))
		for vb := range j.Cells[va] {
			vbs = append(vbs, vb)
		}
		sort.Strings(vbs)
		for _, vb := range vbs {
			if match(va, vb) {
				sum += j.Cells[va][vb].Sums[agg]
			}
		}
	}
	return float64(n), sum, nil
}

// statsCall is one estimator call, run on the statistics path and on the
// reference.
type statsCall struct {
	name     string
	run, ref func(e *Estimator, st *Statistics, r refStats) (any, error)
}

// refDomains are the fixture's discrete domains: d1 holds values that need
// JSON escapes, d2 is a singleton, d3 is small.
var refDomains = map[string][]string{
	"d1": {"a", `q"uote`, "<tag>&", "é", "tab\tsep", "line\u2028sep"},
	"d2": {"solo"},
	"d3": {"x, y", "z", "w"},
}

// statsCalls covers every *Stats and Direct*Stats entry point over
// Eq/In/NotEq/Not/nil/no-match predicates, all three numeric columns (y is
// NaN-only) plus a missing one, and conjunctions over recorded, reversed,
// unrecorded and malformed pairs.
func statsCalls() []statsCall {
	preds := []Predicate{
		Eq("d1", "a"), Eq("d1", "absent"), In("d1", `q"uote`, "é"), NotEq("d3", "z"),
		Not(Eq("d1", "<tag>&")), {Attr: "d1"}, Eq("d2", "solo"), {Attr: "d3"}, Eq("nope", "a"),
	}
	aggs := []string{"x", "y", "z", "nope"}
	var calls []statsCall
	add := func(name string, run, ref func(e *Estimator, st *Statistics, r refStats) (any, error)) {
		calls = append(calls, statsCall{name, run, ref})
	}
	type est = Estimator
	for _, p := range preds {
		add("Count "+p.String(),
			func(e *est, st *Statistics, _ refStats) (any, error) { return e.CountStats(st, p) },
			func(e *est, _ *Statistics, r refStats) (any, error) { return r.count(e, p) })
		add("DirectCount "+p.String(),
			func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectCountStats(st, p) },
			func(_ *est, _ *Statistics, r refStats) (any, error) {
				c, err := r.countMatches(p)
				return float64(c), err
			})
		for _, agg := range aggs {
			name := agg + " " + p.String()
			add("Sum "+name,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.SumStats(st, agg, p) },
				func(e *est, _ *Statistics, r refStats) (any, error) { return r.sum(e, agg, p) })
			add("Avg "+name,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.AvgStats(st, agg, p) },
				func(e *est, _ *Statistics, r refStats) (any, error) { return r.avg(e, agg, p) })
			add("DirectSum "+name,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectSumStats(st, agg, p) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					m, _, err := r.sumMatches(agg, p)
					return m, err
				})
			add("DirectAvg "+name,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectAvgStats(st, agg, p) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					c, err := r.countMatches(p)
					if err != nil {
						return 0.0, err
					}
					if c == 0 {
						return 0.0, fmt.Errorf("estimator: no rows satisfy %s", p)
					}
					m, _, err := r.sumMatches(agg, p)
					return m / float64(c), err
				})
			for _, q := range []float64{0.1, 0.5, 0.9} {
				qn := fmt.Sprintf("Percentile %v %s", q, name)
				add(qn,
					func(e *est, st *Statistics, _ refStats) (any, error) { return e.PercentileStats(st, agg, p, q) },
					func(e *est, _ *Statistics, r refStats) (any, error) { return r.percentile(e, agg, p, q) })
				add("Direct"+qn,
					func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectPercentileStats(st, agg, p, q) },
					func(_ *est, _ *Statistics, r refStats) (any, error) { return r.directPercentile(agg, p, q) })
			}
		}
	}
	for _, agg := range aggs {
		add("Median (no WHERE) "+agg,
			func(e *est, st *Statistics, _ refStats) (any, error) { return e.MedianStats(st, agg, Predicate{}) },
			func(e *est, _ *Statistics, r refStats) (any, error) { return r.percentile(e, agg, Predicate{}, 0.5) })
		add("DirectMedian (no WHERE) "+agg,
			func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectMedianStats(st, agg, Predicate{}) },
			func(_ *est, _ *Statistics, r refStats) (any, error) { return r.directPercentile(agg, Predicate{}, 0.5) })
		add("GroupBinCounts "+agg,
			func(e *est, st *Statistics, _ refStats) (any, error) { return e.GroupBinCountsStats(st, agg) },
			func(e *est, _ *Statistics, r refStats) (any, error) { return r.groupBinCounts(e, agg) })
	}
	for _, attr := range []string{"d1", "d2", "d3", "nope"} {
		add("GroupCounts "+attr,
			func(e *est, st *Statistics, _ refStats) (any, error) { return e.GroupCountsStats(st, attr) },
			func(e *est, _ *Statistics, r refStats) (any, error) {
				return r.group(attr, false, func(p Predicate) (Estimate, error) { return r.count(e, p) })
			})
		add("DirectGroupCounts "+attr,
			func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectGroupCountsStats(st, attr) },
			func(_ *est, _ *Statistics, r refStats) (any, error) {
				return refDirectGroup(r, attr, "", func(s *ValueStats) (float64, bool) { return float64(s.Count), true })
			})
		for _, agg := range aggs {
			add("GroupSums "+attr+" "+agg,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.GroupSumsStats(st, attr, agg) },
				func(e *est, _ *Statistics, r refStats) (any, error) {
					return r.group(attr, false, func(p Predicate) (Estimate, error) { return r.sum(e, agg, p) })
				})
			add("GroupAvgs "+attr+" "+agg,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.GroupAvgsStats(st, attr, agg) },
				func(e *est, _ *Statistics, r refStats) (any, error) {
					return r.group(attr, true, func(p Predicate) (Estimate, error) { return r.avg(e, agg, p) })
				})
			add("DirectGroupSums "+attr+" "+agg,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectGroupSumsStats(st, attr, agg) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					return refDirectGroup(r, attr, agg, func(s *ValueStats) (float64, bool) { return s.Sums[agg], true })
				})
			add("DirectGroupAvgs "+attr+" "+agg,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectGroupAvgsStats(st, attr, agg) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					return refDirectGroup(r, attr, agg, func(s *ValueStats) (float64, bool) {
						return s.Sums[agg] / float64(s.Count), s.Count > 0
					})
				})
		}
	}
	conjs := [][]Predicate{
		{Eq("d1", "a"), Eq("d2", "solo")},
		{Eq("d2", "solo"), In("d1", "é", "tab\tsep")},
		{NotEq("d3", "z"), Not(Eq("d1", "a"))},
		{{Attr: "d1"}, {Attr: "d3"}},
		{Eq("d1", "absent"), Eq("d3", "w")},
		{Eq("d3", "w"), Eq("d2", "solo")},
		{Eq("d1", "a"), Eq("d1", "é")},
		{Eq("d1", "a")},
		{Eq("d1", "a"), Eq("d2", "solo"), Eq("d3", "z")},
	}
	for _, c := range conjs {
		name := fmt.Sprint(c)
		add("CountConj "+name,
			func(e *est, st *Statistics, _ refStats) (any, error) { return e.CountConjStats(st, c...) },
			func(e *est, _ *Statistics, r refStats) (any, error) {
				count, _, err := r.conj(e, "", c)
				return count, err
			})
		add("DirectCountConj "+name,
			func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectCountConjStats(st, c...) },
			func(_ *est, _ *Statistics, r refStats) (any, error) {
				count, _, err := r.directConj("", c)
				return count, err
			})
		for _, agg := range aggs {
			add("SumConj "+agg+" "+name,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.SumConjStats(st, agg, c...) },
				func(e *est, _ *Statistics, r refStats) (any, error) {
					_, sum, err := r.conj(e, agg, c)
					return sum, err
				})
			add("AvgConj "+agg+" "+name,
				func(e *est, st *Statistics, _ refStats) (any, error) { return e.AvgConjStats(st, agg, c...) },
				func(e *est, _ *Statistics, r refStats) (any, error) { return r.avgConj(e, agg, c) })
			add("DirectSumConj "+agg+" "+name,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectSumConjStats(st, agg, c...) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					_, sum, err := r.directConj(agg, c)
					return sum, err
				})
			add("DirectAvgConj "+agg+" "+name,
				func(_ *est, st *Statistics, _ refStats) (any, error) { return DirectAvgConjStats(st, agg, c...) },
				func(_ *est, _ *Statistics, r refStats) (any, error) {
					count, _, err := r.directConj("", c)
					if err != nil {
						return 0.0, err
					}
					if count == 0 {
						return 0.0, fmt.Errorf("estimator: no rows satisfy the conjunction")
					}
					_, sum, err := r.directConj(agg, c)
					return sum / count, err
				})
		}
	}
	return calls
}

// refDirectGroup builds a nominal per-group map from the value marginals;
// agg != "" requires the numeric attribute to exist.
func refDirectGroup(r refStats, attr, agg string, val func(*ValueStats) (float64, bool)) (map[string]float64, error) {
	vs, ok := r.st.Discrete[attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no statistics for discrete attribute %q", attr)
	}
	if agg != "" {
		if _, err := r.st.moments(agg); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for v, s := range vs {
		if x, keep := val(s); keep {
			out[v] = x
		}
	}
	return out, nil
}

// refFixture is a generated relation over d1, d2, d3 (refDomains) and
// numeric x (NaN-holed), y (NaN-only) and z, with metadata whose domains
// carry one value absent from the rows.
func refFixture(t testing.TB, rows int, seed int64) (*relation.Relation, *privacy.ViewMeta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	disc := map[string][]string{}
	for attr, dom := range refDomains {
		col := make([]string, rows)
		for i := range col {
			col[i] = dom[rng.Intn(len(dom))]
		}
		disc[attr] = col
	}
	x, y, z := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()*10 + 3
		if i%5 == 0 {
			x[i] = math.NaN()
		}
		y[i] = math.NaN()
		z[i] = float64(rng.Intn(9)) - 2.5
	}
	schema := relation.MustSchema(
		relation.Column{Name: "d1", Kind: relation.Discrete},
		relation.Column{Name: "d2", Kind: relation.Discrete},
		relation.Column{Name: "d3", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
		relation.Column{Name: "y", Kind: relation.Numeric},
		relation.Column{Name: "z", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema, map[string][]float64{"x": x, "y": y, "z": z}, disc)
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{}, Numeric: map[string]privacy.NumericMeta{}}
	for i, attr := range []string{"d1", "d2", "d3"} {
		dom := append(append([]string(nil), refDomains[attr]...), "absent")
		sort.Strings(dom)
		meta.Discrete[attr] = privacy.DiscreteMeta{Name: attr, P: 0.1 + 0.1*float64(i), Domain: dom}
	}
	return rel, meta
}

// refOpts records histograms of every numeric column and three joints, one
// of them over the singleton d2.
var refOpts = CollectOpts{
	BinEdges: map[string][]float64{
		"x": {-30, -10, 0, 5, 10, 40},
		"y": {0, 1, 2},
		"z": {-3, -1, 0, 1, 3, 7},
	},
	Joints: [][2]string{{"d1", "d2"}, {"d1", "d3"}, {"d2", "d1"}},
}

// refOf builds the reference for statistics collected over rel with
// refOpts.
func refOf(st *Statistics, rel *relation.Relation) refStats {
	r := refStats{st: st, joints: map[[2]string]*wireJoint{}}
	for _, pair := range [][2]string{{"d1", "d2"}, {"d1", "d3"}} {
		r.joints[pair] = refJoint(rel, pair[0], pair[1])
	}
	return r
}

// checkStatsReference requires every call on st to render bitwise equal to
// its reference, and st to marshal to the map layout's bytes.
func checkStatsReference(t *testing.T, label string, e *Estimator, st *Statistics, rel *relation.Relation) {
	t.Helper()
	r := refOf(st, rel)
	for _, c := range statsCalls() {
		want := renderResult(c.ref(e, st, r))
		if got := renderResult(c.run(e, st, r)); got != want {
			t.Fatalf("%s: %s: stats path %s, reference %s", label, c.name, got, want)
		}
	}
	wire := wireStatistics{Rows: st.Rows, Columns: st.Columns, Discrete: st.Discrete, Numeric: st.Numeric, Hist: st.Hist,
		Joints: map[string]*wireJoint{}}
	for pair, j := range r.joints {
		wire.Joints[jointKey(pair[0], pair[1])] = j
	}
	want, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: statistics JSON differs from the map layout's:\n%s\nwant:\n%s", label, got, want)
	}
}

// roundTrip decodes the statistics' JSON into a fresh Statistics.
func roundTrip(t *testing.T, st *Statistics) *Statistics {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back := &Statistics{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	return back
}

func collectRef(t testing.TB, rel *relation.Relation, window int) *Statistics {
	t.Helper()
	st, err := CollectStatisticsWith(relation.NewSliceIterator(rel, window), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatsPathMatchesReference(t *testing.T) {
	for _, tc := range []struct{ rows, window int }{{0, 8}, {1, 8}, {7, 3}, {301, 64}, {2000, 512}} {
		rel, meta := refFixture(t, tc.rows, int64(tc.rows)+1)
		e := &Estimator{Meta: meta}
		label := fmt.Sprintf("rows=%d", tc.rows)
		var st *Statistics
		if tc.rows == 0 {
			// An empty window still fixes the schema and every layout:
			// empty joints, all-zero histograms.
			c, err := NewCollectorWith(refOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Add(rel); err != nil {
				t.Fatal(err)
			}
			st = c.Statistics()
		} else {
			st = collectRef(t, rel, tc.window)
		}
		checkStatsReference(t, label+" collected", e, st, rel)
		checkStatsReference(t, label+" collected, repeat", e, st, rel)
		back := roundTrip(t, st)
		checkStatsReference(t, label+" decoded", e, back, rel)
		cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
		checkStatsReference(t, label+" decoded, channel cache", cached, back, rel)
	}
}

// A collector resumed from a JSON checkpoint keeps accumulating into the
// dense joints exactly as an uninterrupted one does.
func TestStatsPathResumedCollectorMatchesReference(t *testing.T) {
	rel, meta := refFixture(t, 1200, 3)
	e := &Estimator{Meta: meta}
	first, rest := splitRows(rel, func(i int) bool { return i < 500 })
	checkpoint := roundTrip(t, collectRef(t, first, 128))
	c, err := NewCollectorFrom(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(rest); err != nil {
		t.Fatal(err)
	}
	checkStatsReference(t, "resumed", e, c.Statistics(), rel)
	whole, err := json.Marshal(collectRef(t, rel, 128))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := json.Marshal(c.Statistics())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, whole) {
		t.Fatal("resumed collector's statistics differ from an uninterrupted collector's")
	}
}

// A value or cell that Collector.Add records after a query must show in
// the next answer: Add drops the sorted view.
func TestStatsPathSeesLaterAdds(t *testing.T) {
	rel, meta := refFixture(t, 600, 8)
	e := &Estimator{Meta: meta}
	// The first window never holds d1 = "é", so its value and cells are
	// new in the second.
	d1 := rel.MustDiscrete("d1")
	first, rest := splitRows(rel, func(i int) bool { return i < 300 && d1[i] != "é" })
	c, err := NewCollectorWith(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(first); err != nil {
		t.Fatal(err)
	}
	st := c.Statistics()
	checkStatsReference(t, "before", e, st, first)
	if n, err := DirectCountConjStats(st, Eq("d1", "é"), Predicate{Attr: "d3"}); err != nil || n != 0 {
		t.Fatalf("before: conjunction count over d1 = é is %v (%v), want 0", n, err)
	}
	if err := c.Add(rest); err != nil {
		t.Fatal(err)
	}
	checkStatsReference(t, "after", e, st, concatRows(t, first, rest))
	if n, err := DirectCountConjStats(st, Eq("d1", "é"), Predicate{Attr: "d3"}); err != nil || n == 0 {
		t.Fatalf("after: conjunction count over d1 = é is %v (%v), want > 0", n, err)
	}
}

// splitRows splits rel into the rows in selects and the rest, in order.
func splitRows(rel *relation.Relation, in func(i int) bool) (*relation.Relation, *relation.Relation) {
	return rel.Filter(in), rel.Filter(func(i int) bool { return !in(i) })
}

// concatRows stacks relations of one schema.
func concatRows(t *testing.T, parts ...*relation.Relation) *relation.Relation {
	t.Helper()
	schema := parts[0].Schema()
	num, disc := map[string][]float64{}, map[string][]string{}
	for _, p := range parts {
		for _, n := range schema.NumericNames() {
			num[n] = append(num[n], p.MustNumeric(n)...)
		}
		for _, n := range schema.DiscreteNames() {
			disc[n] = append(disc[n], p.MustDiscrete(n)...)
		}
	}
	rel, err := relation.FromColumns(schema, num, disc)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// Goroutines racing to first use of one decoded Statistics must each get
// the reference answers (run under -race).
func TestStatsPathConcurrentFirstUse(t *testing.T) {
	rel, meta := refFixture(t, 900, 4)
	e := &Estimator{Meta: meta, Cache: NewChannelCache()}
	st := collectRef(t, rel, 100)
	r := refOf(st, rel)
	calls := statsCalls()
	want := make([]string, len(calls))
	for i, c := range calls {
		want[i] = renderResult(c.ref(e, st, r))
	}
	fresh := roundTrip(t, st)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range calls {
				i := (k + 37*g) % len(calls)
				if got := renderResult(calls[i].run(e, fresh, r)); got != want[i] {
					t.Errorf("goroutine %d: %s: %s, want %s", g, calls[i].name, got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// A decoded 200×20 joint with two aggregates is held densely: well under
// the ≈3.5 MB its per-cell maps retained.
func TestDecodedJointRetainsLittleHeap(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"a":"category","b":"region","cells":{`)
	for a := 0; a < 200; a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"v%03d":{`, a)
		for r := 0; r < 20; r++ {
			if r > 0 {
				b.WriteByte(',')
			}
			n := 100 + a + r
			fmt.Fprintf(&b, `"r%02d":{"count":%d,"sums":{"score":%d.5,"value":%d.25},"sumsqs":{"score":%d.75,"value":%d.125},"nonnan":{"score":%d,"value":%d}}`,
				r, n, n*3, n*50, n*10, n*2600, n-1, n)
		}
		b.WriteByte('}')
	}
	b.WriteString(`}}`)
	data := []byte(b.String())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	j := &JointStats{}
	if err := json.Unmarshal(data, j); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if len(j.counts) != 4000 || len(j.aggs) != 2 {
		t.Fatalf("decoded %d cells and %d aggregates, want 4000 and 2", len(j.counts), len(j.aggs))
	}
	if retained >= 1<<20 {
		t.Fatalf("decoded joint retained %d bytes, want < 1 MB", retained)
	}
	runtime.KeepAlive(j)
	runtime.KeepAlive(data)
}
