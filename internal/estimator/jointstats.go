package estimator

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JointStats is the pairwise joint distribution of two discrete attributes
// (A < B lexicographically): per observed (value_a, value_b) cell, the row
// count plus per-numeric-attribute aggregate sums, squared sums, and non-NaN
// counts over the cell's rows.
//
// The cells are stored densely, in parallel slices indexed by cell, so a
// decoded joint holds no per-cell maps; the conjunction estimators read
// them through the sorted view the owning Statistics builds once
// (statsview.go). The JSON form is unchanged from the map layout
//
//	{"a": A, "b": B, "cells": {va: {vb: {"count": n,
//	    "sums": {agg: x}, "sumsqs": {agg: x}, "nonnan": {agg: n}}}}}
//
// with a cell's aggregate entries present exactly when its non-NaN count of
// that attribute is positive.
type JointStats struct {
	A string
	B string

	// Cell i holds the rows with A = va[i] and B = vb[i]. Cells are kept in
	// the order they were first added (collector) or read (decoder); each
	// (va, vb) pair appears once.
	va, vb []string
	counts []int
	// aggs names the numeric attributes with recorded aggregates, in the
	// order first seen; sums[k][i], sumSqs[k][i] and nonNaN[k][i] are the
	// aggregates of aggs[k] over cell i (all zero when it has none).
	aggs   []string
	sums   [][]float64
	sumSqs [][]float64
	nonNaN [][]int

	// cellOf maps (va, vb) to its cell. Only Collector.Add builds it, so a
	// decoded joint that is only queried never holds it.
	cellOf map[[2]string]int
}

// aggIndex returns the position of aggregate agg in j.aggs, or -1.
func (j *JointStats) aggIndex(agg string) int {
	return slices.Index(j.aggs, agg)
}

// aggregate returns the per-cell aggregates of agg (nil slices when the
// joint records none; every cell then reads as zero).
func (j *JointStats) aggregate(agg string) (sums, sumSqs []float64, nonNaN []int) {
	if k := j.aggIndex(agg); k >= 0 {
		return j.sums[k], j.sumSqs[k], j.nonNaN[k]
	}
	return nil, nil, nil
}

// ensureAgg returns the position of aggregate agg, adding all-zero slices
// for it when it is not yet recorded.
func (j *JointStats) ensureAgg(agg string) int {
	if k := j.aggIndex(agg); k >= 0 {
		return k
	}
	n := len(j.counts)
	j.aggs = append(j.aggs, agg)
	j.sums = append(j.sums, make([]float64, n))
	j.sumSqs = append(j.sumSqs, make([]float64, n))
	j.nonNaN = append(j.nonNaN, make([]int, n))
	return len(j.aggs) - 1
}

// appendCell adds an empty cell and returns its index.
func (j *JointStats) appendCell(va, vb string) int {
	j.va = append(j.va, va)
	j.vb = append(j.vb, vb)
	j.counts = append(j.counts, 0)
	for k := range j.aggs {
		j.sums[k] = append(j.sums[k], 0)
		j.sumSqs[k] = append(j.sumSqs[k], 0)
		j.nonNaN[k] = append(j.nonNaN[k], 0)
	}
	return len(j.counts) - 1
}

// cell returns the index of the (va, vb) cell, adding it if absent.
func (j *JointStats) cell(va, vb string) int {
	if j.cellOf == nil {
		j.cellOf = make(map[[2]string]int, len(j.counts))
		for i := range j.counts {
			j.cellOf[[2]string{j.va[i], j.vb[i]}] = i
		}
	}
	key := [2]string{va, vb}
	if i, ok := j.cellOf[key]; ok {
		return i
	}
	i := j.appendCell(va, vb)
	j.cellOf[key] = i
	return i
}

// sortedCells returns the cell indices in ascending (va, vb) order.
func (j *JointStats) sortedCells() []int32 {
	order := make([]int32, len(j.counts))
	for i := range order {
		order[i] = int32(i)
	}
	cmp := func(x, y int32) int {
		if c := strings.Compare(j.va[x], j.va[y]); c != 0 {
			return c
		}
		return strings.Compare(j.vb[x], j.vb[y])
	}
	if !slices.IsSortedFunc(order, cmp) {
		slices.SortFunc(order, cmp)
	}
	return order
}

// MarshalJSON writes the map layout, byte-identical to what encoding/json
// wrote for it: keys in sorted order, and a cell's aggregate entries
// present exactly when its non-NaN count of the attribute is positive.
func (j JointStats) MarshalJSON() ([]byte, error) {
	order := j.sortedCells()
	aggOrder := make([]int, len(j.aggs))
	for k := range aggOrder {
		aggOrder[k] = k
	}
	slices.SortFunc(aggOrder, func(x, y int) int { return strings.Compare(j.aggs[x], j.aggs[y]) })

	b := make([]byte, 0, 64+96*len(order))
	b = append(b, `{"a":`...)
	b = appendJSONString(b, j.A)
	b = append(b, `,"b":`...)
	b = appendJSONString(b, j.B)
	b = append(b, `,"cells":{`...)
	for n, i := range order {
		newRow := n == 0 || j.va[i] != j.va[order[n-1]]
		switch {
		case newRow && n > 0:
			b = append(b, "},"...)
		case !newRow:
			b = append(b, ',')
		}
		if newRow {
			b = appendJSONString(b, j.va[i])
			b = append(b, ":{"...)
		}
		b = appendJSONString(b, j.vb[i])
		b = append(b, `:{"count":`...)
		b = strconv.AppendInt(b, int64(j.counts[i]), 10)
		for part, open := range []string{`,"sums":{`, `,"sumsqs":{`, `,"nonnan":{`} {
			first := true
			for _, k := range aggOrder {
				if j.nonNaN[k][i] <= 0 {
					continue
				}
				if first {
					b = append(b, open...)
					first = false
				} else {
					b = append(b, ',')
				}
				b = appendJSONString(b, j.aggs[k])
				b = append(b, ':')
				var err error
				switch part {
				case 0:
					b, err = appendJSONFloat(b, j.sums[k][i])
				case 1:
					b, err = appendJSONFloat(b, j.sumSqs[k][i])
				default:
					b = strconv.AppendInt(b, int64(j.nonNaN[k][i]), 10)
				}
				if err != nil {
					return nil, fmt.Errorf("estimator: joint %s&%s cell (%q, %q): %w", j.A, j.B, j.va[i], j.vb[i], err)
				}
			}
			if !first {
				b = append(b, '}')
			}
		}
		b = append(b, '}')
	}
	if len(order) > 0 {
		b = append(b, '}')
	}
	return append(b, "}}"...), nil
}

// appendJSONString appends s as encoding/json writes a string. Plain
// printable ASCII is copied; anything that needs an escape (quotes,
// controls, HTML-sensitive <>&, non-ASCII) goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, exponent form only below 1e-6 or from 1e21, with a
// two-digit negative exponent trimmed (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// UnmarshalJSON reads the map layout in one pass straight into the dense
// cells. It is stricter than encoding/json, and whatever it accepts decodes
// to the cells encoding/json gives for the map layout:
//
//   - object keys must be exact ("a", "b", "cells", "count", ...), and no
//     key, cell key included, may repeat;
//   - a cell must record each aggregate in all of sums, sumsqs and nonnan
//     or in none, with a positive non-NaN count;
//   - only the whole joint, cells, a row of cells and the aggregate maps may
//     be null (a null row holds no cells).
func (j *JointStats) UnmarshalJSON(data []byte) error {
	d := jointDecoder{s: jsonScanner{data: data}}
	out, err := d.joint()
	if err != nil {
		return fmt.Errorf("estimator: joint statistics: %w", err)
	}
	*j = out
	return nil
}

// jointDecoder decodes one JointStats.
type jointDecoder struct {
	s jsonScanner
	j JointStats
	// prevRow holds the previous row's B values, so a B value repeated in
	// the same position of the next row shares one string.
	prevRow, row []string
	// aggBits marks, for the cell being read, which of sums (1), sumsqs (2)
	// and nonnan (4) recorded each aggregate.
	aggBits []uint8
}

func (d *jointDecoder) joint() (JointStats, error) {
	s := &d.s
	s.ws()
	if s.null() {
		return JointStats{}, s.end()
	}
	var seen [3]bool
	err := s.object(func(key string) error {
		slot, err := s.field(key, []string{"a", "b", "cells"}, seen[:])
		if err != nil {
			return err
		}
		switch slot {
		case 0:
			d.j.A, err = s.str()
		case 1:
			d.j.B, err = s.str()
		default:
			err = d.cells()
		}
		return err
	})
	if err != nil {
		return JointStats{}, err
	}
	return d.j, s.end()
}

func (d *jointDecoder) cells() error {
	s := &d.s
	if s.null() {
		return nil
	}
	var rows []string
	err := s.object(func(va string) error {
		rows = append(rows, va)
		if s.null() {
			return nil
		}
		d.row = d.row[:0]
		err := s.objectRaw(func(raw []byte, plain bool) error {
			vb, err := d.internB(raw, plain)
			if err != nil {
				return err
			}
			d.row = append(d.row, vb)
			return d.cell(va, vb)
		})
		if err == nil {
			if vb, dup := repeated(d.row); dup {
				err = s.errorf("cell (%q, %q) appears twice", va, vb)
			}
		}
		d.prevRow, d.row = d.row, d.prevRow
		return err
	})
	if err != nil {
		return err
	}
	if va, dup := repeated(rows); dup {
		return s.errorf("cell row %q appears twice", va)
	}
	return nil
}

// repeated reports a key that occurs more than once. Keys an encoder wrote
// are already sorted, so the check is one pass.
func repeated(keys []string) (string, bool) {
	if !slices.IsSorted(keys) {
		keys = slices.Clone(keys)
		slices.Sort(keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return keys[i], true
		}
	}
	return "", false
}

// internB returns the B value of the next cell of the current row, reusing
// the previous row's string at the same position when the bytes agree.
func (d *jointDecoder) internB(raw []byte, plain bool) (string, error) {
	if k := len(d.row); plain && k < len(d.prevRow) && d.prevRow[k] == string(raw) {
		return d.prevRow[k], nil
	}
	return d.s.unquote(raw, plain)
}

func (d *jointDecoder) cell(va, vb string) error {
	s := &d.s
	i := d.j.appendCell(va, vb)
	for k := range d.aggBits {
		d.aggBits[k] = 0
	}
	var seen [4]bool
	err := s.object(func(key string) error {
		slot, err := s.field(key, []string{"count", "sums", "sumsqs", "nonnan"}, seen[:])
		if err != nil {
			return err
		}
		if slot == 0 {
			n, err := s.int()
			d.j.counts[i] = n
			return err
		}
		if s.null() {
			return nil
		}
		bit := uint8(1) << (slot - 1)
		return s.object(func(agg string) error {
			k := d.j.ensureAgg(agg)
			for len(d.aggBits) < len(d.j.aggs) {
				d.aggBits = append(d.aggBits, 0)
			}
			if d.aggBits[k]&bit != 0 {
				return s.errorf("cell (%q, %q): duplicate aggregate %q", va, vb, agg)
			}
			d.aggBits[k] |= bit
			var err error
			switch slot {
			case 1:
				d.j.sums[k][i], err = s.float()
			case 2:
				d.j.sumSqs[k][i], err = s.float()
			default:
				d.j.nonNaN[k][i], err = s.int()
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	for k, bits := range d.aggBits {
		if bits == 0 {
			continue
		}
		if bits != 7 {
			return s.errorf("cell (%q, %q): aggregate %q must appear in all of sums, sumsqs and nonnan or in none", va, vb, d.j.aggs[k])
		}
		if d.j.nonNaN[k][i] <= 0 {
			return s.errorf("cell (%q, %q): aggregate %q has non-NaN count %d, want > 0", va, vb, d.j.aggs[k], d.j.nonNaN[k][i])
		}
	}
	return nil
}

// jsonScanner is a minimal strict JSON tokenizer over one value.
type jsonScanner struct {
	data []byte
	pos  int
}

func (s *jsonScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (s *jsonScanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end.
func (s *jsonScanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// field returns key's position in names, failing on a key that is not
// one of them or that seen marks as already read.
func (s *jsonScanner) field(key string, names []string, seen []bool) (int, error) {
	k := slices.Index(names, key)
	if k < 0 {
		return -1, s.errorf("unknown key %q", key)
	}
	if seen[k] {
		return -1, s.errorf("duplicate key %q", key)
	}
	seen[k] = true
	return k, nil
}

// end requires that only whitespace remains.
func (s *jsonScanner) end() error {
	s.ws()
	if s.pos != len(s.data) {
		return s.errorf("unexpected data after the value")
	}
	return nil
}

// null consumes a null literal if one is next.
func (s *jsonScanner) null() bool {
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// object reads an object, calling member with each key positioned at the
// start of its value.
func (s *jsonScanner) object(member func(key string) error) error {
	return s.objectRaw(func(raw []byte, plain bool) error {
		key, err := s.unquote(raw, plain)
		if err != nil {
			return err
		}
		return member(key)
	})
}

// objectRaw is object with the key passed as its raw token (see strRaw).
func (s *jsonScanner) objectRaw(member func(raw []byte, plain bool) error) error {
	if s.peek() != '{' {
		return s.errorf("expected an object")
	}
	s.pos++
	s.ws()
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for {
		raw, plain, err := s.strRaw()
		if err != nil {
			return err
		}
		s.ws()
		if s.peek() != ':' {
			return s.errorf("expected ':'")
		}
		s.pos++
		s.ws()
		if err := member(raw, plain); err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
			s.ws()
		case '}':
			s.pos++
			return nil
		default:
			return s.errorf("expected ',' or '}'")
		}
	}
}

// strRaw reads a string token. For plain strings (printable ASCII, no
// escapes) raw is the content between the quotes; otherwise raw is the
// whole quoted token, for unquote to decode.
func (s *jsonScanner) strRaw() (raw []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.errorf("expected a string")
	}
	start := s.pos
	s.pos++
	plain = true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			if plain {
				return s.data[start+1 : s.pos-1], true, nil
			}
			return s.data[start:s.pos], false, nil
		case c == '\\':
			plain = false
			s.pos += 2
		case c < 0x20:
			return nil, false, s.errorf("control character in string")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			s.pos++
		}
	}
	return nil, false, s.errorf("unterminated string")
}

// unquote turns a strRaw token into its string value, with encoding/json's
// escape and invalid-UTF-8 handling.
func (s *jsonScanner) unquote(raw []byte, plain bool) (string, error) {
	if plain {
		return string(raw), nil
	}
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", s.errorf("bad string: %v", err)
	}
	return v, nil
}

// str reads a string value.
func (s *jsonScanner) str() (string, error) {
	raw, plain, err := s.strRaw()
	if err != nil {
		return "", err
	}
	return s.unquote(raw, plain)
}

// number reads a number token, validated against the JSON grammar.
func (s *jsonScanner) number() ([]byte, error) {
	start := s.pos
	digits := func() int {
		n := 0
		for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
			s.pos++
			n++
		}
		return n
	}
	if s.peek() == '-' {
		s.pos++
	}
	if s.peek() == '0' {
		s.pos++
	} else if digits() == 0 {
		return nil, s.errorf("expected a number")
	}
	if s.peek() == '.' {
		s.pos++
		if digits() == 0 {
			return nil, s.errorf("bad number fraction")
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if digits() == 0 {
			return nil, s.errorf("bad number exponent")
		}
	}
	return s.data[start:s.pos], nil
}

// int reads an integer number, as encoding/json decodes into an int.
func (s *jsonScanner) int() (int, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	// Up to 18 plain digits always fit; anything else takes ParseInt.
	if len(tok) <= 18 && tok[0] != '-' && !slices.ContainsFunc(tok, func(c byte) bool { return c < '0' || c > '9' }) {
		n := 0
		for _, c := range tok {
			n = 10*n + int(c-'0')
		}
		return n, nil
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errorf("bad integer %s", tok)
	}
	return int(n), nil
}

// float reads a number, as encoding/json decodes into a float64.
func (s *jsonScanner) float() (float64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("bad number %s", tok)
	}
	return f, nil
}
