package estimator

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// toWire spells a dense joint in the map layout, one entry per aggregate
// with a positive non-NaN count.
func toWire(j *JointStats) *wireJoint {
	w := &wireJoint{A: j.A, B: j.B, Cells: map[string]map[string]*wireCell{}}
	for i := range j.counts {
		row := w.Cells[j.va[i]]
		if row == nil {
			row = map[string]*wireCell{}
			w.Cells[j.va[i]] = row
		}
		cell := &wireCell{Count: j.counts[i]}
		for k, agg := range j.aggs {
			if j.nonNaN[k][i] <= 0 {
				continue
			}
			if cell.Sums == nil {
				cell.Sums, cell.SumSqs, cell.NonNaN = map[string]float64{}, map[string]float64{}, map[string]int{}
			}
			cell.Sums[agg] = j.sums[k][i]
			cell.SumSqs[agg] = j.sumSqs[k][i]
			cell.NonNaN[agg] = j.nonNaN[k][i]
		}
		row[j.vb[i]] = cell
	}
	return w
}

// canonical drops what the map layout can spell but that carries no cell:
// empty or null rows, a null cells map, and empty aggregate maps.
func canonical(w *wireJoint) *wireJoint {
	out := &wireJoint{A: w.A, B: w.B, Cells: map[string]map[string]*wireCell{}}
	for va, row := range w.Cells {
		if len(row) == 0 {
			continue
		}
		out.Cells[va] = map[string]*wireCell{}
		for vb, cell := range row {
			c := *cell
			if len(c.Sums) == 0 {
				c.Sums = nil
			}
			if len(c.SumSqs) == 0 {
				c.SumSqs = nil
			}
			if len(c.NonNaN) == 0 {
				c.NonNaN = nil
			}
			out.Cells[va][vb] = &c
		}
	}
	return out
}

// FuzzJointJSON checks the one-pass joint decoder against encoding/json
// into the map layout. Whatever encoding/json rejects, the decoder rejects;
// whatever the decoder accepts, encoding/json accepts too, with the same
// cells, and the dense joint re-marshals to exactly the bytes encoding/json
// writes for those cells — for the collector's own output, the input bytes.
func FuzzJointJSON(f *testing.F) {
	rel, _ := refFixture(f, 40, 1)
	st := collectRef(f, rel, 16)
	for _, j := range st.Joints {
		data, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`null`,
		`{}`,
		`{"a":"d1","b":"d2","cells":{}}`,
		`{"a":"d1","b":"d2","cells":null}`,
		`{"a":"x","b":"y","cells":{"é":{"<&>":{"count":2,"sums":{"v":1.5},"sumsqs":{"v":2.25},"nonnan":{"v":1}}}}}`,
		`{"a":"x","b":"y","cells":{"p":{"q":{"count":1},"q":{"count":2}}}}`,
		`{"a":"x","a":"y","cells":{}}`,
		`{"a":"x","b":"y","cells":{"p":{"q":{"count":1,"sums":{"v":NaN},"sumsqs":{"v":1},"nonnan":{"v":1}}}}}`,
		`{"a":"x","b":"y","cells":{"p":{"q":{"count":1,"sums":{"v":0x1p3},"sumsqs":{"v":1},"nonnan":{"v":1}}}}}`,
		`{"a":"x","b":"y","cells":{"p":{"q":{"count":1,"sums":{"v":1},"nonnan":{"v":1}}}}}`,
		`{"a":"x","b":"y","cells":{"p":null,"q":{}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkJointJSON)
}

// checkJointJSON is FuzzJointJSON's property on one input.
func checkJointJSON(t *testing.T, data []byte) {
	var ref wireJoint
	refErr := json.Unmarshal(data, &ref)
	var direct, viaJSON JointStats
	directErr := direct.UnmarshalJSON(data)
	viaErr := json.Unmarshal(data, &viaJSON)
	if refErr != nil {
		if directErr == nil || viaErr == nil {
			t.Fatalf("encoding/json rejects %q (%v), the decoder accepts it (direct %v, via encoding/json %v)", data, refErr, directErr, viaErr)
		}
		return
	}
	if (directErr == nil) != (viaErr == nil) {
		t.Fatalf("%q: direct decode %v, via encoding/json %v", data, directErr, viaErr)
	}
	if directErr != nil {
		return // stricter than encoding/json is allowed
	}
	want := canonical(&ref)
	for _, j := range []*JointStats{&direct, &viaJSON} {
		if got := toWire(j); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded cells %+v, encoding/json gives %+v", data, got, want)
		}
	}
	got, err := json.Marshal(&direct)
	if err != nil {
		t.Fatalf("%q: re-marshal: %v", data, err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("%q: re-marshals to %s, encoding/json writes %s", data, got, wantBytes)
	}
}
