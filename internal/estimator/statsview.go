package estimator

import (
	"fmt"
	"slices"
	"sort"
)

// statsView is the sorted, dense form of a Statistics that the *Stats and
// Direct*Stats estimators read, so a query does O(domain) arithmetic with
// no sorting and no map walk. It is built on first use, shared by
// concurrent readers (Statistics.sorted), and dropped by Collector.Add and
// NewCollectorFrom. Accumulation follows the same sorted orders the
// estimators always used, so answers are bitwise unchanged.
type statsView struct {
	attrs  map[string]*attrView
	joints map[[2]string]*jointView
}

// attrView is one discrete attribute's marginals in sorted-value order.
type attrView struct {
	vals  []string      // distinct values, sorted
	stats []*ValueStats // stats[k] holds the marginals of vals[k]
	// sums maps each numeric attribute to its per-value sums (0 where a
	// value recorded none); bins each binned attribute to its per-value bin
	// counts (nil where a value recorded none).
	sums map[string][]float64
	bins map[string][][]int
}

// jointView is one pairwise joint's cells in sorted (va, vb) order.
type jointView struct {
	j     *JointStats
	cells []int32 // cell indices, sorted by (va, vb)
	// aVals and bVals are the distinct values of each side, sorted;
	// aPos[k] and bPos[k] place sorted cell k's values in them, so a
	// per-value weight is evaluated once per distinct value.
	aVals, bVals []string
	aPos, bPos   []int32
}

// sortedView returns the statistics' sorted view, building it on first use.
// Concurrent first callers may each build one; all are equal and one is
// kept.
func (st *Statistics) sortedView() *statsView {
	if v := st.sorted.Load(); v != nil {
		return v
	}
	v := newStatsView(st)
	st.sorted.CompareAndSwap(nil, v)
	return v
}

// invalidate drops the sorted view after the statistics change.
func (st *Statistics) invalidate() { st.sorted.Store(nil) }

func newStatsView(st *Statistics) *statsView {
	v := &statsView{
		attrs:  make(map[string]*attrView, len(st.Discrete)),
		joints: make(map[[2]string]*jointView, len(st.Joints)),
	}
	for attr, vs := range st.Discrete {
		a := &attrView{vals: make([]string, 0, len(vs))}
		for val, s := range vs {
			if s != nil {
				a.vals = append(a.vals, val)
			}
		}
		sort.Strings(a.vals)
		a.stats = make([]*ValueStats, len(a.vals))
		for k, val := range a.vals {
			a.stats[k] = vs[val]
		}
		a.sums = make(map[string][]float64, len(st.Numeric))
		for agg := range st.Numeric {
			xs := make([]float64, len(a.vals))
			for k, s := range a.stats {
				xs[k] = s.Sums[agg]
			}
			a.sums[agg] = xs
		}
		a.bins = make(map[string][][]int, len(st.Hist))
		for agg := range st.Hist {
			bs := make([][]int, len(a.vals))
			for k, s := range a.stats {
				bs[k] = s.Bins[agg]
			}
			a.bins[agg] = bs
		}
		v.attrs[attr] = a
	}
	// Two map keys naming the same pair (the key is cosmetic) resolve to
	// the one with the smaller key, so the choice is deterministic.
	keys := make([]string, 0, len(st.Joints))
	for key, j := range st.Joints {
		if j != nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		j := st.Joints[key]
		if _, dup := v.joints[[2]string{j.A, j.B}]; !dup {
			v.joints[[2]string{j.A, j.B}] = newJointView(j)
		}
	}
	return v
}

func newJointView(j *JointStats) *jointView {
	jv := &jointView{j: j, cells: j.sortedCells()}
	jv.aPos = make([]int32, len(jv.cells))
	for k, i := range jv.cells {
		if k == 0 || j.va[i] != j.va[jv.cells[k-1]] {
			jv.aVals = append(jv.aVals, j.va[i])
		}
		jv.aPos[k] = int32(len(jv.aVals) - 1)
	}
	jv.bVals = slices.Clone(j.vb)
	slices.Sort(jv.bVals)
	jv.bVals = slices.Compact(jv.bVals)
	jv.bPos = make([]int32, len(jv.cells))
	for k, i := range jv.cells {
		p, _ := slices.BinarySearch(jv.bVals, j.vb[i])
		jv.bPos[k] = int32(p)
	}
	return jv
}

// attr returns the sorted view of a discrete attribute.
func (st *Statistics) attr(name string) (*attrView, error) {
	a, ok := st.sortedView().attrs[name]
	if !ok {
		return nil, fmt.Errorf("estimator: no statistics for discrete attribute %q", name)
	}
	return a, nil
}

// pick selects values out of an attribute's sorted domain: those a
// predicate matches (all of them for a nil Match), or — for one GROUP BY
// group — only the value at position at.
type pick struct {
	match func(string) bool
	at    int
}

// matching selects the values pred matches.
func matching(pred Predicate) pick { return pick{match: pred.Match, at: -1} }

// only selects the value at position k.
func only(k int) pick { return pick{at: k} }

func (s pick) picks(k int, v string) bool {
	if s.at >= 0 {
		return k == s.at
	}
	return s.match == nil || s.match(v)
}

// count returns the number of rows holding a selected value.
func (a *attrView) count(sel pick) int {
	if sel.at >= 0 {
		return a.stats[sel.at].Count
	}
	n := 0
	for k, v := range a.vals {
		if sel.picks(k, v) {
			n += a.stats[k].Count
		}
	}
	return n
}

// split accumulates per-value sums xs over the selected values and over
// the rest, in sorted-value order.
func (a *attrView) split(xs []float64, sel pick) (matched, complement float64) {
	for k, v := range a.vals {
		if sel.picks(k, v) {
			matched += xs[k]
		} else {
			complement += xs[k]
		}
	}
	return matched, complement
}

// joint returns the sorted view of the recorded joint of two attributes,
// given in (A, B) order.
func (st *Statistics) joint(a, b string) (*jointView, bool) {
	jv, ok := st.sortedView().joints[[2]string{a, b}]
	return jv, ok
}
