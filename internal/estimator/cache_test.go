package estimator

// Regression tests for ChannelCache key-aliasing bugs: predicates whose
// rendered descriptions collided used to poison each other's cached channel
// selectivity and match tables on the server's shared estimator.

import (
	"fmt"
	"testing"
)

// In used to render its values unquoted, joined with ", ", so
// In("category", "b, c") and In("category", "b", "c") produced the identical
// key `category IN (b, c)`: after one was resolved, the other was silently
// served the wrong cached match table. Values containing ", " are ordinary
// data ("Washington, DC"), not an edge case.
func TestInCacheKeyDisambiguatesJoinedValues(t *testing.T) {
	joined := In("category", "b, c")
	split := In("category", "b", "c")
	kj, okj := predCacheKey(joined)
	ks, oks := predCacheKey(split)
	if !okj || !oks {
		t.Fatalf("In predicates must be cacheable: joined %v, split %v", okj, oks)
	}
	if kj == ks {
		t.Fatalf("distinct In predicates share cache key %+v", kj)
	}

	// End-to-end: a shared cache must serve both predicates correctly in
	// either order. The relation holds the literal value "b, c" alongside
	// "b" and "c", so the two predicates select different row sets.
	r := catValRel(t,
		[]string{"b", "c", "b, c", "b, c", "d"},
		[]float64{1, 2, 3, 4, 5})
	meta := metaFor(0.25, "b", "c", "b, c", "d")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	for _, pred := range []Predicate{joined, split, joined} {
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v (cache served an aliased entry)", pred, pc, cc)
		}
	}
}

// Fn predicates are keyed by UDF name alone in their rendering, so two Fn
// predicates with the same name but different functions would alias; they
// must bypass the cache entirely.
func TestFnPredicatesBypassCache(t *testing.T) {
	r := catValRel(t,
		[]string{"a", "a", "b", "c"},
		[]float64{1, 2, 3, 4})
	meta := metaFor(0.25, "a", "b", "c")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}

	isA := Fn("category", "f", func(v string) bool { return v == "a" })
	isB := Fn("category", "f", func(v string) bool { return v == "b" }) // same name, different func
	for _, pred := range []Predicate{isA, isB} {
		if _, ok := predCacheKey(pred); ok {
			t.Fatalf("Fn predicate %s must not be cacheable", pred)
		}
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v", pred, pc, cc)
		}
	}
	if chans, tables := cached.Cache.Len(); chans != 0 || tables != 0 {
		t.Fatalf("Fn predicates left cache entries: %d channels, %d tables", chans, tables)
	}
}

// And-merged predicates (the query compiler's same-attribute conjunction
// merge) used to be built as Fn(attr, "and", ...), so every merged
// conjunction over one attribute shared the key `and(attr)`.
func TestAndPredicate(t *testing.T) {
	p := And(Eq("category", "a"), NotEq("category", "b"))
	q := And(Eq("category", "a"), NotEq("category", "c"))
	kp, okp := predCacheKey(p)
	kq, okq := predCacheKey(q)
	if !okp || !okq {
		t.Fatalf("And of cacheable predicates must be cacheable: %v / %v", okp, okq)
	}
	if kp == kq {
		t.Fatalf("distinct And predicates share cache key %+v", kp)
	}

	if !p.Match("a") || p.Match("b") || p.Match("c") {
		t.Fatalf("And match table wrong: a=%v b=%v c=%v", p.Match("a"), p.Match("b"), p.Match("c"))
	}

	// A nil Match side means match-all.
	all := Predicate{Attr: "category"}
	pa := And(all, Eq("category", "a"))
	if !pa.Match("a") || pa.Match("b") {
		t.Fatal("And with nil-Match side must reduce to the other side")
	}

	// Uncacheability is contagious: Fn operands and desc-less hand-built
	// operands (whose "<func>" fallback rendering is not canonical) poison
	// the conjunction, as does Not of a desc-less predicate.
	fn := Fn("category", "f", func(v string) bool { return v == "a" })
	if _, ok := predCacheKey(And(fn, Eq("category", "a"))); ok {
		t.Fatal("And with an Fn operand must not be cacheable")
	}
	handbuilt := Predicate{Attr: "category", Match: func(v string) bool { return v == "a" }}
	if _, ok := predCacheKey(And(Eq("category", "a"), handbuilt)); ok {
		t.Fatal("And with a desc-less operand must not be cacheable")
	}
	if _, ok := predCacheKey(Not(handbuilt)); ok {
		t.Fatal("Not of a desc-less predicate must not be cacheable")
	}

	// Cached equivalence end-to-end for the two merged conjunctions.
	r := catValRel(t,
		[]string{"a", "a", "b", "c"},
		[]float64{1, 2, 3, 4})
	meta := metaFor(0.25, "a", "b", "c")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	for _, pred := range []Predicate{p, q, p} {
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v", pred, pc, cc)
		}
	}
}

// Eq and NotEq descriptions are cache keys shared with every cached entry;
// they must keep rendering exactly as fmt's %q.
func TestEqDescriptionsRenderAsQuotedFormat(t *testing.T) {
	for _, v := range []string{"", "a", "b, c", `say "hi"`, "tab\there", "naïve", "\x00\xff", "Washington, DC"} {
		if got, want := Eq("attr", v).String(), fmt.Sprintf("%s = %q", "attr", v); got != want {
			t.Errorf("Eq desc = %s, want %s", got, want)
		}
		if got, want := NotEq("attr", v).String(), fmt.Sprintf("%s != %q", "attr", v); got != want {
			t.Errorf("NotEq desc = %s, want %s", got, want)
		}
	}
}
