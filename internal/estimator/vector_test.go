package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/relation"
)

// vectorRel builds a relation whose "cat" domain is large enough to exercise
// every selection representation, with NaN holes in the aggregate.
func vectorRel(t testing.TB, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cat := make([]string, rows)
	other := make([]string, rows)
	x := make([]float64, rows)
	for i := range cat {
		cat[i] = fmt.Sprintf("v%02d", rng.Intn(20))
		other[i] = fmt.Sprintf("g%d", rng.Intn(3))
		if rng.Intn(11) == 0 {
			x[i] = math.NaN()
		} else {
			x[i] = rng.NormFloat64() * 10
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "cat", Kind: relation.Discrete},
		relation.Column{Name: "other", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema,
		map[string][]float64{"x": x},
		map[string][]string{"cat": cat, "other": other})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// naiveEval is the reference implementation: per-row string evaluation with
// the same NaN-first accumulation order.
func naiveEval(rel *relation.Relation, pred Predicate, agg string) (count int, matched, complement float64) {
	col := rel.MustDiscrete(pred.Attr)
	vals := rel.MustNumeric(agg)
	for i, v := range col {
		ok := pred.Match == nil || pred.Match(v)
		if ok {
			count++
		}
		x := vals[i]
		if math.IsNaN(x) {
			continue
		}
		if ok {
			matched += x
		} else {
			complement += x
		}
	}
	return count, matched, complement
}

// TestVectorizedMatchesNaive pins the vectorized executor to the reference
// semantics bit for bit, across every selection representation (match-all,
// match-none, single code, table).
func TestVectorizedMatchesNaive(t *testing.T) {
	rel := vectorRel(t, 997)
	preds := []Predicate{
		{Attr: "cat"}, // nil Match: match-all
		Eq("cat", "v03"),
		Eq("cat", "no-such-value"),
		In("cat", "v01", "v05", "v09"),
		In("cat", "v00", "v02", "v04", "v06", "v08", "v10", "v12"),
		Not(Eq("cat", "v03")),
	}
	ix, err := rel.DiscreteIndex("cat")
	if err != nil {
		t.Fatal(err)
	}
	vals := rel.MustNumeric("x")
	for _, pred := range preds {
		wantCount, wantM, wantC := naiveEval(rel, pred, "x")
		sel := compileSelection(ix, pred)
		if got := countSelected(ix.Codes, sel); got != wantCount {
			t.Errorf("%s: countSelected = %d, want %d", pred, got, wantCount)
		}
		// The O(domain) count from materialized dictionary counts and the
		// fallback scan over a count-less index must agree with the scan.
		if got := countSelection(ix, sel); got != wantCount {
			t.Errorf("%s: countSelection = %d, want %d", pred, got, wantCount)
		}
		bare := &relation.DiscreteIndex{Domain: ix.Domain, Codes: ix.Codes}
		if got := countSelection(bare, sel); got != wantCount {
			t.Errorf("%s: countSelection (no counts) = %d, want %d", pred, got, wantCount)
		}
		gotM, gotC := sumSelected(ix.Codes, vals, sel)
		if gotM != wantM || gotC != wantC {
			t.Errorf("%s: sumSelected = (%v, %v), want (%v, %v)", pred, gotM, gotC, wantM, wantC)
		}
	}
}

// TestDirectConjMatchesNaive pins the nominal conjunction count and sum —
// the all-true entry of the pattern table — to a per-row evaluation, bit for
// bit, including a match-all operand and an odd row count.
func TestDirectConjMatchesNaive(t *testing.T) {
	rel := vectorRel(t, 501)
	cat, other, x := rel.MustDiscrete("cat"), rel.MustDiscrete("other"), rel.MustNumeric("x")
	wide := In("cat", "v01", "v02", "v03", "v04", "v05", "v06")
	for _, preds := range [][]Predicate{
		{wide},
		{wide, Eq("other", "g1")},
		{Predicate{Attr: "other"}, Eq("cat", "v07")},
		{Eq("cat", "no-such-value"), Eq("other", "g0")},
	} {
		wantN, wantSum := 0.0, 0.0
		for i := range cat {
			m := true
			for _, p := range preds {
				v := cat[i]
				if p.Attr == "other" {
					v = other[i]
				}
				m = m && (p.Match == nil || p.Match(v))
			}
			if !m {
				continue
			}
			wantN++
			if !math.IsNaN(x[i]) {
				wantSum += x[i]
			}
		}
		n, err := DirectCountConj(rel, preds...)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := DirectSumConj(rel, "x", preds...)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN || math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("%v: direct (count, sum) = (%v, %v), want (%v, %v)", preds, n, sum, wantN, wantSum)
		}
	}
}
