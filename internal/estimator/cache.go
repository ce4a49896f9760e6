package estimator

import (
	"sync"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// ChannelCache memoizes the deterministic inputs of every corrected
// estimate over a resident relation, so a warm query does O(domain) or O(1)
// work instead of a row scan. It holds one entry per item:
//
//   - per predicate: the resolved response channel (p, N, l), which may walk
//     the cleaning provenance graph to compute a weighted vertex cut, and
//     the matched private row count;
//   - per (predicate, aggregate column): the matched and complement sums;
//   - per aggregate column: the (mean, variance) pair;
//   - per (group attribute, aggregate column): the GROUP BY pass (per-code
//     counts, per-code sums, and the column total);
//   - per conjunction (and aggregate column): the per-match-pattern row
//     counts, plus Σx, Σx² and non-NaN rows for SumConj/AvgConj.
//
// Each entry is computed on first use by the same kernel, in the same row
// order, as the uncached call — so results are bitwise identical with and
// without the cache, and the CLI's one-shot query path simply leaves it nil.
// No per-row state (match bitsets, code vectors) is retained.
//
// Keys are the predicate's rendered description, which is canonical for
// Eq/NotEq/In/And/Not-built predicates (values render quoted, so no two
// distinct value sets collide); the match-all nil predicate gets its own
// reserved key. Conjunction keys are the ordered array of their operands'
// keys, never a string concatenation, so no value can alias two
// conjunctions. Fn-built predicates are NOT cached — a UDF name does not
// uniquely determine the wrapped function — and neither is a hand-built
// Predicate with a Match func but no description; both bypass the cache and
// are recomputed per call, as does any conjunction containing one.
//
// Invalidation contract: every relation-derived entry records the identity of
// the inputs it was computed from — the predicate column's *DiscreteIndex and
// the aggregate column's backing slice — and is recomputed, never served
// stale, when either changes. A discrete-column write through the relation
// API (SetDiscrete, MapDiscrete) or InvalidateIndex replaces the index, so it
// invalidates transparently. A numeric column written in place (SetNumeric)
// keeps its backing slice, and channels depend on Meta and Prov, which the
// cache cannot observe: attach a cache only while Meta, Prov and the
// relation's predicate and aggregate columns are not being mutated.
//
// The cache is safe for concurrent use.
type ChannelCache struct {
	mu      sync.RWMutex
	chans   map[predKey]channelVal
	counts  map[predKey]memoEntry[*relation.DiscreteIndex, int]
	sums    map[sumKey]memoEntry[colDeps, [2]float64]
	moments map[string]memoEntry[colID, [2]float64]
	groups  map[groupKey]memoEntry[colDeps, *groupAgg]
	conjs   map[conjKey]memoEntry[conjDeps, *patternTable]
}

// NewChannelCache returns an empty cache ready for concurrent use.
func NewChannelCache() *ChannelCache {
	return &ChannelCache{
		chans:   make(map[predKey]channelVal),
		counts:  make(map[predKey]memoEntry[*relation.DiscreteIndex, int]),
		sums:    make(map[sumKey]memoEntry[colDeps, [2]float64]),
		moments: make(map[string]memoEntry[colID, [2]float64]),
		groups:  make(map[groupKey]memoEntry[colDeps, *groupAgg]),
		conjs:   make(map[conjKey]memoEntry[conjDeps, *patternTable]),
	}
}

type predKey struct {
	attr string
	desc string
}

type channelVal struct {
	p float64
	n int
	l float64
	// tauN and denom are the governing mechanism's inversion constants at
	// (p, n, l): tauN = P[private value matches | true value does not] and
	// denom = tau_p - tau_n, the signal every corrected estimate divides
	// by. They are resolved once from the mechanism registry so the
	// estimate math never branches on the mechanism name.
	tauN  float64
	denom float64
}

// predCacheKey returns the cache key for pred and whether pred is cacheable.
// A predicate is cacheable when its description uniquely determines its
// semantics: Eq/NotEq/In/And/Not-built predicates qualify, the nil-Match
// (match-all) predicate is keyed under a reserved tag, and Fn-built or
// desc-less predicates (noCache) do not.
func predCacheKey(pred Predicate) (predKey, bool) {
	if pred.Match == nil {
		return predKey{attr: pred.Attr, desc: "\x00all"}, true
	}
	if pred.noCache || pred.desc == "" {
		return predKey{}, false
	}
	return predKey{attr: pred.Attr, desc: pred.desc}, true
}

// colID is the identity of a numeric column's backing slice. It holds a
// real pointer, so the backing array cannot be freed and its address reused
// while an entry refers to it.
type colID struct {
	p *float64
	n int
}

func colIdentity(vals []float64) colID {
	if len(vals) == 0 {
		return colID{}
	}
	return colID{p: &vals[0], n: len(vals)}
}

// colDeps are the inputs of a (predicate or group attribute, aggregate
// column) entry.
type colDeps struct {
	ix  *relation.DiscreteIndex
	col colID
}

type sumKey struct {
	pred predKey
	agg  string
}

type groupKey struct {
	attr, agg string
}

// maxConjMemo is the most operands a memoized conjunction may have; longer
// conjunctions are evaluated per call.
const maxConjMemo = 8

// conjKey identifies a conjunction by its ordered operand keys (the pattern
// bit i belongs to operand i, so order is part of the identity) and, for
// sum tables, the aggregate column; agg is "" for count-only tables.
type conjKey struct {
	preds [maxConjMemo]predKey
	k     int
	agg   string
}

type conjDeps struct {
	ixs [maxConjMemo]*relation.DiscreteIndex
	col colID
}

// memoEntry is one cached value with the identities of the inputs it was
// computed from.
type memoEntry[D comparable, V any] struct {
	deps D
	v    V
}

// memoize returns the value cached under k when it was computed from deps,
// and otherwise computes, stores and returns it. Errors are not cached.
// Two goroutines missing on the same key both compute; they store the same
// value.
func memoize[K, D comparable, V any](c *ChannelCache, m map[K]memoEntry[D, V], k K, deps D, compute func() (V, error)) (V, error) {
	c.mu.RLock()
	e, ok := m[k]
	c.mu.RUnlock()
	if ok && e.deps == deps {
		return e.v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	m[k] = memoEntry[D, V]{deps: deps, v: v}
	c.mu.Unlock()
	return v, nil
}

func (c *ChannelCache) getChannel(k predKey) (channelVal, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.chans[k]
	return v, ok
}

func (c *ChannelCache) putChannel(k predKey, v channelVal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chans[k] = v
}

// Len reports how many channels and relation aggregates (counts, sums,
// moments, GROUP BY passes and conjunction tables) are resident, for tests
// and server introspection.
func (c *ChannelCache) Len() (channels, tables int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.chans), len(c.counts) + len(c.sums) + len(c.moments) + len(c.groups) + len(c.conjs)
}

// countMatches is countMatches routed through the estimator's cache (when
// attached and pred is cacheable).
func (e *Estimator) countMatches(rel *relation.Relation, pred Predicate) (int, error) {
	k, cacheable := predCacheKey(pred)
	if e.Cache == nil || !cacheable {
		return countMatches(rel, pred)
	}
	ix, err := rel.DiscreteIndex(pred.Attr)
	if err != nil {
		return 0, err
	}
	return memoize(e.Cache, e.Cache.counts, k, ix, func() (int, error) {
		return countSelection(ix, compileSelection(ix, pred)), nil
	})
}

// sumMatches is sumMatches routed through the estimator's cache.
func (e *Estimator) sumMatches(rel *relation.Relation, agg string, pred Predicate) (matched, complement float64, err error) {
	k, cacheable := predCacheKey(pred)
	if e.Cache == nil || !cacheable {
		return sumMatches(rel, agg, pred)
	}
	ix, err := rel.DiscreteIndex(pred.Attr)
	if err != nil {
		return 0, 0, err
	}
	vals, err := rel.Numeric(agg)
	if err != nil {
		return 0, 0, err
	}
	// The kernel cannot fail, so neither can memoize.
	s, _ := memoize(e.Cache, e.Cache.sums, sumKey{pred: k, agg: agg}, colDeps{ix: ix, col: colIdentity(vals)},
		func() ([2]float64, error) {
			m, c := sumSelected(ix.Codes, vals, compileSelection(ix, pred))
			return [2]float64{m, c}, nil
		})
	return s[0], s[1], nil
}

// moments returns the mean and variance of the aggregate column agg,
// memoized per column when a cache is attached.
func (e *Estimator) moments(rel *relation.Relation, agg string) (mean, variance float64, err error) {
	col, err := rel.Numeric(agg)
	if err != nil {
		return 0, 0, err
	}
	if e.Cache == nil {
		return stats.MeanVariance(col)
	}
	mv, err := memoize(e.Cache, e.Cache.moments, agg, colIdentity(col), func() ([2]float64, error) {
		m, v, err := stats.MeanVariance(col)
		return [2]float64{m, v}, err
	})
	return mv[0], mv[1], err
}

// groupAggregates returns the one-pass GROUP BY aggregates of agg by attr,
// memoized per (attr, agg) when a cache is attached.
func (e *Estimator) groupAggregates(ix *relation.DiscreteIndex, attr, agg string, col []float64) *groupAgg {
	if e.Cache == nil {
		return groupAggregates(ix, col)
	}
	// The kernel cannot fail, so neither can memoize.
	g, _ := memoize(e.Cache, e.Cache.groups, groupKey{attr: attr, agg: agg}, colDeps{ix: ix, col: colIdentity(col)},
		func() (*groupAgg, error) { return groupAggregates(ix, col), nil })
	return g
}
