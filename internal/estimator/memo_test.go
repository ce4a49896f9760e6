package estimator

// Cached-vs-uncached identity of the memoized resident path: a ChannelCache
// must change how often the rows are scanned, never a bit of an answer.

import (
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
)

// memoFixture is a generated relation over discrete d1 (5 values), d2
// (singleton) and d3 (2 values) and numeric x (NaN-holed) and y, with
// metadata whose domains carry one value absent from the rows, so Eq on it
// matches nothing.
type memoFixture struct {
	rel  *relation.Relation
	meta *privacy.ViewMeta
}

var memoDomains = map[string][]string{
	"d1": {"a", "b", "c", "d", "e"},
	"d2": {"solo"},
	"d3": {"x, y", "z"},
}

func newMemoFixture(t *testing.T, rows int, seed int64, nanEvery int) memoFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	disc := map[string][]string{}
	for _, attr := range []string{"d1", "d2", "d3"} {
		dom := memoDomains[attr]
		col := make([]string, rows)
		for i := range col {
			col[i] = dom[rng.Intn(len(dom))]
		}
		disc[attr] = col
	}
	x := make([]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()*10 + 3
		if nanEvery > 0 && i%nanEvery == 0 {
			x[i] = math.NaN()
		}
		y[i] = float64(rng.Intn(7)) - 2.5
	}
	schema := relation.MustSchema(
		relation.Column{Name: "d1", Kind: relation.Discrete},
		relation.Column{Name: "d2", Kind: relation.Discrete},
		relation.Column{Name: "d3", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
		relation.Column{Name: "y", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema, map[string][]float64{"x": x, "y": y}, disc)
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{},
		Numeric: map[string]privacy.NumericMeta{
			"x": {Name: "x", B: 1}, "y": {Name: "y", B: 0},
		},
	}
	for i, attr := range []string{"d1", "d2", "d3"} {
		dom := append(append([]string(nil), memoDomains[attr]...), "absent")
		sort.Strings(dom)
		meta.Discrete[attr] = privacy.DiscreteMeta{Name: attr, P: 0.1 + 0.1*float64(i), Domain: dom}
	}
	return memoFixture{rel: rel, meta: meta}
}

// renderResult prints an estimator result with exact bit patterns, so two
// renderings are equal only when every float is bitwise equal.
func renderResult(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	bits := func(e Estimate) string {
		return fmt.Sprintf("%x/%x", math.Float64bits(e.Value), math.Float64bits(e.CI))
	}
	switch r := v.(type) {
	case Estimate:
		return bits(r)
	case map[string]Estimate:
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%s;", k, bits(r[k]))
		}
		return b.String()
	case float64:
		return fmt.Sprintf("%x", math.Float64bits(r))
	case map[string]float64:
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%x;", k, math.Float64bits(r[k]))
		}
		return b.String()
	case []BinEstimate:
		var b strings.Builder
		for _, be := range r {
			fmt.Fprintf(&b, "%x,%x,%q=%s;", math.Float64bits(be.Lo), math.Float64bits(be.Hi), be.Label, bits(be.Est))
		}
		return b.String()
	}
	panic(fmt.Sprintf("unexpected result %T", v))
}

type memoCall struct {
	name string
	run  func(e *Estimator, rel *relation.Relation) (any, error)
}

// memoCalls covers every memoized entry point over Eq/In/Not/NotEq/nil and
// no-match predicates, both aggregate columns, and conjunctions of one to
// three operands.
func memoCalls() []memoCall {
	preds := []Predicate{
		Eq("d1", "a"), Eq("d1", "absent"), In("d1", "b", "c"), In("d3", "x, y"),
		NotEq("d3", "z"), Not(Eq("d1", "e")), {Attr: "d1"}, Eq("d2", "solo"), {Attr: "d2"},
	}
	var calls []memoCall
	add := func(name string, run func(e *Estimator, rel *relation.Relation) (any, error)) {
		calls = append(calls, memoCall{name, run})
	}
	for _, p := range preds {
		add("Count "+p.String(), func(e *Estimator, rel *relation.Relation) (any, error) { return e.Count(rel, p) })
		for _, agg := range []string{"x", "y"} {
			add("Sum "+agg+" "+p.String(), func(e *Estimator, rel *relation.Relation) (any, error) { return e.Sum(rel, agg, p) })
			add("Avg "+agg+" "+p.String(), func(e *Estimator, rel *relation.Relation) (any, error) { return e.Avg(rel, agg, p) })
			add("SumIFP "+agg+" "+p.String(), func(e *Estimator, rel *relation.Relation) (any, error) {
				return e.SumIgnoringFalsePositives(rel, agg, p)
			})
		}
	}
	for _, agg := range []string{"x", "y"} {
		add("TotalAvg "+agg, func(e *Estimator, rel *relation.Relation) (any, error) { return e.TotalAvg(rel, agg) })
		add("TotalSum "+agg, func(e *Estimator, rel *relation.Relation) (any, error) { return e.TotalSum(rel, agg) })
		for _, attr := range []string{"d1", "d2", "d3"} {
			add("GroupSums "+attr+" "+agg, func(e *Estimator, rel *relation.Relation) (any, error) { return e.GroupSums(rel, attr, agg) })
			add("GroupAvgs "+attr+" "+agg, func(e *Estimator, rel *relation.Relation) (any, error) { return e.GroupAvgs(rel, attr, agg) })
		}
	}
	add("GroupCounts d1", func(e *Estimator, rel *relation.Relation) (any, error) { return e.GroupCounts(rel, "d1") })
	conjs := [][]Predicate{
		{Eq("d1", "a")},
		{Eq("d1", "a"), NotEq("d3", "z")},
		{In("d1", "b", "c"), {Attr: "d2"}},
		{Eq("d1", "absent"), Eq("d3", "z")},
		{Not(Eq("d1", "e")), Eq("d2", "solo"), In("d3", "x, y")},
		{In("d3", "x, y"), Not(Eq("d1", "e"))},
	}
	for _, c := range conjs {
		name := fmt.Sprint(c)
		add("CountConj "+name, func(e *Estimator, rel *relation.Relation) (any, error) { return e.CountConj(rel, c...) })
		for _, agg := range []string{"x", "y"} {
			add("SumConj "+agg+" "+name, func(e *Estimator, rel *relation.Relation) (any, error) { return e.SumConj(rel, agg, c...) })
			add("AvgConj "+agg+" "+name, func(e *Estimator, rel *relation.Relation) (any, error) { return e.AvgConj(rel, agg, c...) })
		}
	}
	return calls
}

// checkMemoIdentity runs every call on an uncached and a cached estimator
// and requires bitwise-equal results (or identical errors).
func checkMemoIdentity(t *testing.T, label string, plain, cached *Estimator, rel *relation.Relation) {
	t.Helper()
	for _, c := range memoCalls() {
		want := renderResult(c.run(plain, rel))
		if got := renderResult(c.run(cached, rel)); got != want {
			t.Fatalf("%s: %s: cached %s, uncached %s", label, c.name, got, want)
		}
	}
}

func TestMemoizedResidentPathBitwiseIdentity(t *testing.T) {
	for _, tc := range []struct {
		rows, nanEvery int
	}{
		{1, 0}, {1, 1}, {63, 5}, {65, 0}, {1037, 7}, {4099, 2},
	} {
		f := newMemoFixture(t, tc.rows, int64(tc.rows), tc.nanEvery)
		plain := &Estimator{Meta: f.meta}
		cached := &Estimator{Meta: f.meta, Cache: NewChannelCache()}
		label := fmt.Sprintf("rows=%d nanEvery=%d", tc.rows, tc.nanEvery)
		checkMemoIdentity(t, label+" first", plain, cached, f.rel)
		checkMemoIdentity(t, label+" repeat", plain, cached, f.rel)
		if _, tables := cached.Cache.Len(); tables == 0 {
			t.Fatalf("%s: nothing was memoized", label)
		}
	}
}

// Goroutines sharing one cache race to fill and read every kind of entry;
// each must still see the uncached answer (run under -race).
func TestMemoizedResidentPathConcurrent(t *testing.T) {
	f := newMemoFixture(t, 1037, 11, 4)
	plain := &Estimator{Meta: f.meta}
	calls := memoCalls()
	want := make([]string, len(calls))
	for i, c := range calls {
		want[i] = renderResult(c.run(plain, f.rel))
	}
	cached := &Estimator{Meta: f.meta, Cache: NewChannelCache()}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				i := (k + 7*g) % len(calls)
				if got := renderResult(calls[i].run(cached, f.rel)); got != want[i] {
					t.Errorf("goroutine %d: %s: cached %s, uncached %s", g, calls[i].name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A memo must never be served stale after the predicate column changes:
// writes through the relation API and direct writes followed by
// InvalidateIndex both replace the dictionary index the entries record.
func TestMemoizedResidentPathNotStaleAfterRewrite(t *testing.T) {
	f := newMemoFixture(t, 1037, 5, 3)
	plain := &Estimator{Meta: f.meta}
	cached := &Estimator{Meta: f.meta, Cache: NewChannelCache()}
	checkMemoIdentity(t, "before", plain, cached, f.rel)

	// Merge "a" into "b" and "x, y" into "z": every d1 and d3 entry changes.
	if err := f.rel.MapDiscrete("d1", func(v string) string {
		if v == "a" {
			return "b"
		}
		return v
	}); err != nil {
		t.Fatal(err)
	}
	col, err := f.rel.Discrete("d3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range col {
		if i%2 == 0 {
			col[i] = "z"
		}
	}
	f.rel.InvalidateIndex("d3")
	checkMemoIdentity(t, "after rewrite", plain, cached, f.rel)
	checkMemoIdentity(t, "after rewrite, repeat", plain, cached, f.rel)

	// A second relation sharing the cache (same attribute names, different
	// rows) must not be answered from the first one's entries either.
	g := newMemoFixture(t, 65, 9, 0)
	checkMemoIdentity(t, "other relation", plain, cached, g.rel)
	checkMemoIdentity(t, "first relation again", plain, cached, f.rel)
}

// The cache holds aggregates, not per-row state: caching 200 predicates on
// a 200k-row relation must retain well under the ≈5 MB that one match
// bitset per predicate (25 KB each) used to.
func TestMemoizedResidentPathRetainsLittleHeap(t *testing.T) {
	const rows, values = 200000, 250
	dom := make([]string, values)
	for i := range dom {
		dom[i] = fmt.Sprintf("v%03d", i)
	}
	cats := make([]string, rows)
	vals := make([]float64, rows)
	for i := range cats {
		cats[i] = dom[(i*7)%values]
		vals[i] = float64(i % 13)
	}
	rel := catValRel(t, cats, vals)
	meta := metaFor(0.2, dom...)
	// Build the dictionary index before the baseline: it belongs to the
	// relation, not to the cache.
	if _, err := rel.DiscreteIndex("category"); err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Meta: meta, Cache: NewChannelCache()}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		pred := Eq("category", dom[i])
		if _, err := est.Count(rel, pred); err != nil {
			t.Fatal(err)
		}
		if _, err := est.Sum(rel, "value", pred); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained >= 1<<20 {
		t.Fatalf("caching 200 predicates retained %d bytes, want < 1 MB", retained)
	}
	if chans, tables := est.Cache.Len(); chans != 200 || tables < 400 {
		t.Fatalf("cache holds %d channels and %d tables, want 200 and >= 400", chans, tables)
	}
	runtime.KeepAlive(est)
	runtime.KeepAlive(rel)
}
