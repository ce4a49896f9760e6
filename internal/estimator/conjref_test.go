package estimator

// The conjunction estimators evaluate Σ_p n_p·w_p over match patterns. This
// file keeps the per-row weight loop they replaced as a test-only reference
// and checks the pattern form against it.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// conjReference is the per-row estimator: every row's weight is the product
// of its per-predicate weights, accumulated in row order. Alongside the four
// statistics it returns their scales — the same sums over absolute terms —
// against which rounding differences are bounded.
type conjReference struct {
	count, sum, countVar, sumVar           float64
	countScale, sumScale, cvScale, svScale float64
}

func conjStatisticsReference(t *testing.T, rel *relation.Relation, preds []Predicate, chans []conjChannel, vals []float64) conjReference {
	t.Helper()
	cols := make([][]string, len(preds))
	for i, pred := range preds {
		col, err := rel.Discrete(pred.Attr)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = col
	}
	rows := rel.NumRows()
	var ref conjReference
	var cAcc, hAcc, c2Acc, h2Acc, sumRows, cAbs, hAbs float64
	for r := 0; r < rows; r++ {
		w := 1.0
		for i, pred := range preds {
			if pred.Match == nil || pred.Match(cols[i][r]) {
				w *= chans[i].wTrue
			} else {
				w *= chans[i].wFalse
			}
		}
		cAcc += w
		c2Acc += w * w
		cAbs += math.Abs(w)
		if vals != nil {
			x := vals[r]
			if math.IsNaN(x) {
				continue
			}
			sumRows++
			hAcc += w * x
			h2Acc += w * x * w * x
			hAbs += math.Abs(w * x)
		}
	}
	s := float64(rows)
	ref.count, ref.sum = cAcc, hAcc
	ref.countVar = math.Max(0, c2Acc-cAcc*cAcc/s)
	ref.countScale, ref.cvScale = cAbs, c2Acc+cAbs*cAbs/s
	if sumRows > 0 {
		ref.sumVar = math.Max(0, h2Acc-hAcc*hAcc/sumRows)
		ref.sumScale, ref.svScale = hAbs, h2Acc+hAbs*hAbs/sumRows
	}
	return ref
}

// conjRefBound is the stated agreement: the pattern form and the per-row
// loop differ by float re-association only, so each statistic agrees to
// within 1e-12 of the sum of its absolute terms (the quantity rounding
// error scales with; a relative bound on the result itself is undefined
// where the signed weights cancel to ~0).
const conjRefBound = 1e-12

// conjRefRelation has k discrete attributes a0..a{k-1} over 3-value domains
// plus a NaN-holed numeric column v.
func conjRefRelation(t *testing.T, k, rows int, seed int64) (*relation.Relation, *privacy.ViewMeta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := []string{"p", "q", "r"}
	cols := []relation.Column{{Name: "v", Kind: relation.Numeric}}
	disc := map[string][]string{}
	meta := &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{}}
	for i := 0; i < k; i++ {
		attr := fmt.Sprintf("a%d", i)
		cols = append(cols, relation.Column{Name: attr, Kind: relation.Discrete})
		col := make([]string, rows)
		for r := range col {
			col[r] = dom[rng.Intn(len(dom))]
		}
		disc[attr] = col
		// Metadata domains add a value the rows never hold.
		meta.Discrete[attr] = privacy.DiscreteMeta{Name: attr, P: 0.05 + 0.1*float64(i%4),
			Domain: []string{"p", "q", "r", "s"}}
	}
	v := make([]float64, rows)
	for r := range v {
		v[r] = rng.NormFloat64()*5 + 20
		if r%9 == 4 {
			v[r] = math.NaN()
		}
	}
	rel, err := relation.FromColumns(relation.MustSchema(cols...), map[string][]float64{"v": v}, disc)
	if err != nil {
		t.Fatal(err)
	}
	return rel, meta
}

func TestConjPatternFormMatchesPerRowReference(t *testing.T) {
	// Operand shapes per attribute: a plain match, a set, a nil (match-all)
	// predicate, a match-none predicate and a negation.
	shapes := []func(attr string) Predicate{
		func(a string) Predicate { return Eq(a, "p") },
		func(a string) Predicate { return In(a, "q", "r") },
		func(a string) Predicate { return Predicate{Attr: a} },
		func(a string) Predicate { return Eq(a, "s") },
		func(a string) Predicate { return NotEq(a, "r") },
	}
	for _, k := range []int{1, 2, 3, 17} {
		for _, rows := range []int{1, 63, 65, 1037} {
			rel, meta := conjRefRelation(t, k, rows, int64(100*k+rows))
			vals, err := rel.Numeric("v")
			if err != nil {
				t.Fatal(err)
			}
			for shift := range shapes {
				preds := make([]Predicate, k)
				for i := range preds {
					preds[i] = shapes[(i+shift)%len(shapes)](fmt.Sprintf("a%d", i))
				}
				label := fmt.Sprintf("k=%d rows=%d shift=%d", k, rows, shift)
				for _, est := range []*Estimator{{Meta: meta}, {Meta: meta, Cache: NewChannelCache()}} {
					checkConjAgainstReference(t, label, est, rel, preds, vals)
				}
			}
		}
	}
}

func checkConjAgainstReference(t *testing.T, label string, est *Estimator, rel *relation.Relation, preds []Predicate, vals []float64) {
	t.Helper()
	chans, err := est.conjChannels(preds)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref := conjStatisticsReference(t, rel, preds, chans, vals)
	tab, err := est.conjTable(rel, "v", preds)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	count, sum, countVar, sumVar := tab.statistics(chans, rel.NumRows())
	for _, c := range []struct {
		name            string
		got, want, base float64
	}{
		{"count", count, ref.count, ref.countScale},
		{"sum", sum, ref.sum, ref.sumScale},
		{"countVar", countVar, ref.countVar, ref.cvScale},
		{"sumVar", sumVar, ref.sumVar, ref.svScale},
	} {
		if d := math.Abs(c.got - c.want); d > conjRefBound*c.base {
			t.Fatalf("%s: %s = %v, per-row reference %v (|diff| %g > %g·%g)", label, c.name, c.got, c.want, d, conjRefBound, c.base)
		}
	}
	// The public entry points read the same table: CountConj's value is
	// the table count, and AvgConj's count is CountConj's, bit for bit.
	cc, err := est.CountConj(rel, preds...)
	if err != nil {
		t.Fatalf("%s: CountConj: %v", label, err)
	}
	if math.Float64bits(cc.Value) != math.Float64bits(count) {
		t.Fatalf("%s: CountConj = %v, count-only table %v", label, cc.Value, count)
	}
	sc, err := est.SumConj(rel, "v", preds...)
	if err != nil {
		t.Fatalf("%s: SumConj: %v", label, err)
	}
	if math.Float64bits(sc.Value) != math.Float64bits(sum) {
		t.Fatalf("%s: SumConj = %v, table sum %v", label, sc.Value, sum)
	}
}

// Conjunction memo keys are structured: a string join of operand keys
// would alias these two conjunctions (hand-built descriptions carrying the
// separator), and a count-only table must never answer a sum.
func TestConjMemoKeysDoNotAlias(t *testing.T) {
	rel, meta := conjRefRelation(t, 3, 1037, 7)
	isP := func(v string) bool { return v == "p" }
	isQ := func(v string) bool { return v == "q" }
	// Joined as attr\x00desc\x00attr\x00desc..., both conjunctions render
	// "a0\x00u\x00a1\x00v\x00a2\x00w".
	first := []Predicate{
		{Attr: "a0", Match: isP, desc: "u"},
		{Attr: "a1", Match: isQ, desc: "v\x00a2\x00w"},
	}
	second := []Predicate{
		{Attr: "a0", Match: isQ, desc: "u\x00a1\x00v"},
		{Attr: "a2", Match: isP, desc: "w"},
	}
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	for pass := 0; pass < 2; pass++ {
		for _, preds := range [][]Predicate{first, second, {first[1], first[0]}} {
			for _, agg := range []string{"", "v"} {
				var want, got string
				if agg == "" {
					want = renderResult(plain.CountConj(rel, preds...))
					got = renderResult(cached.CountConj(rel, preds...))
				} else {
					want = renderResult(plain.SumConj(rel, agg, preds...))
					got = renderResult(cached.SumConj(rel, agg, preds...))
				}
				if got != want {
					t.Fatalf("pass %d %v agg %q: cached %s, uncached %s", pass, preds, agg, got, want)
				}
			}
		}
	}
	// 3 conjunctions × {count, sum}, one table each.
	cached.Cache.mu.RLock()
	n := len(cached.Cache.conjs)
	cached.Cache.mu.RUnlock()
	if n != 6 {
		t.Fatalf("conjunction tables = %d, want 6 (one per conjunction and aggregate)", n)
	}

	// A conjunction with an uncacheable operand is recomputed per call and
	// leaves no table behind.
	fn := Fn("a1", "f", isQ)
	if _, err := cached.CountConj(rel, Eq("a0", "p"), fn); err != nil {
		t.Fatal(err)
	}
	cached.Cache.mu.RLock()
	n = len(cached.Cache.conjs)
	cached.Cache.mu.RUnlock()
	if n != 6 {
		t.Fatalf("Fn operand memoized a conjunction table (%d tables)", n)
	}
}
