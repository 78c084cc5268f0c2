package main

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/reader"
	"repro/internal/tensor"
)

const (
	testRowsPerFile = 50
	testBatch       = 32 // does not divide testRowsPerFile: batches carry
)

// fixture is a small landed table, the reader the program runs over it,
// and a checker over the rows the table must deliver.
type fixture struct {
	schema *datagen.Schema
	spec   reader.Spec
	tbl    *landed
	chk    *checker
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	schema := benchSchema()
	tbl, err := landTable(schema, generate(schema, 160, 8, 5), testRowsPerFile)
	if err != nil {
		t.Fatal(err)
	}
	spec := benchSpec(testBatch)
	chk, err := newChecker(schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{schema: schema, spec: spec, tbl: tbl, chk: chk}
}

// programBatches runs the program's reader over rows cut into batches
// exactly as a serial scan cuts them.
func (f *fixture) programBatches(t *testing.T, rows []datagen.Sample) []batchView {
	t.Helper()
	r, err := reader.NewReader(f.tbl.store, f.spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []batchView
	for lo := 0; lo < len(rows); lo += testBatch {
		b, err := r.ProduceBatch(rows[lo:min(lo+testBatch, len(rows))], f.schema.SparseKeys(), f.schema.Dense)
		if err != nil {
			t.Fatal(err)
		}
		v, err := viewOf(b, f.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// scan is the program's own stream over the landed table.
func (f *fixture) scan(t *testing.T) []batchView {
	t.Helper()
	r, err := reader.NewReader(f.tbl.store, f.spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []batchView
	err = r.Run(context.Background(), f.tbl.files, func(b *reader.Batch) error {
		v, err := viewOf(b, f.spec)
		out = append(out, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// verify feeds a stream to a fresh stream checker over the table's rows.
func (f *fixture) verify(views []batchView) error {
	s := newStream(f.chk, f.tbl.rows, testBatch)
	for _, v := range views {
		if err := s.next(v); err != nil {
			return err
		}
	}
	return s.done()
}

func TestCheckerAcceptsProgramStream(t *testing.T) {
	f := newFixture(t)
	if len(f.tbl.files) < 3 {
		t.Fatalf("fixture has %d files, want several", len(f.tbl.files))
	}
	if err := f.verify(f.scan(t)); err != nil {
		t.Fatalf("unbroken stream rejected: %v", err)
	}
}

func TestCheckerRejectsBrokenStreams(t *testing.T) {
	f := newFixture(t)
	rows := f.tbl.rows
	cases := []struct {
		name   string
		stream func(t *testing.T) []batchView
		want   string // a fragment of the rejection
	}{
		{"sparse value changed", func(t *testing.T) []batchView {
			vs := f.scan(t)
			vs[1].plain[0].Values[0]++
			return vs
		}, "differs"},
		{"deduplicated value changed", func(t *testing.T) []batchView {
			vs := f.scan(t)
			vs[2].groups[0].dedup[1].Values[3]++
			return vs
		}, "differs"},
		{"row dropped", func(t *testing.T) []batchView {
			return f.programBatches(t, slices.Delete(slices.Clone(rows), 40, 41))
		}, ""},
		{"two files' rows swapped", func(t *testing.T) []batchView {
			n := testRowsPerFile
			swapped := slices.Concat(rows[n:2*n], rows[:n], rows[2*n:])
			return f.programBatches(t, swapped)
		}, "batch at row 0: row 0:"},
		{"non-maximal dedup group", func(t *testing.T) []batchView {
			vs := f.scan(t)
			g := &vs[0].groups[0]
			// Duplicate unique row inverse[1] as a new unique row and point
			// batch row 1 at the copy: expansion is unchanged, but two
			// unique rows are now equal.
			src := int(g.inverse[1])
			for k, d := range g.dedup {
				rowsOf := d.ToRows()
				g.dedup[k] = tensor.NewJagged(append(rowsOf, slices.Clone(rowsOf[src])))
			}
			g.inverse = slices.Clone(g.inverse)
			g.inverse[1] = int32(g.dedup[0].Rows() - 1)
			return vs
		}, "not maximal"},
		{"inverse index out of range", func(t *testing.T) []batchView {
			vs := f.scan(t)
			g := &vs[1].groups[2]
			g.inverse = slices.Clone(g.inverse)
			g.inverse[5] = int32(g.dedup[0].Rows())
			return vs
		}, "out of range"},
		{"landed row delivered twice", func(t *testing.T) []batchView {
			twice := slices.Insert(slices.Clone(rows), 70, rows[69])
			return f.programBatches(t, twice[:len(rows)])
		}, ""},
		{"stream cut short", func(t *testing.T) []batchView {
			vs := f.scan(t)
			return vs[:len(vs)-1]
		}, "stream ended"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := f.verify(tc.stream(t))
			if err == nil {
				t.Fatal("broken stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected for the wrong reason: %v", err)
			}
		})
	}
}

func TestCheckPredictions(t *testing.T) {
	if err := checkPredictions([]float64{0.25, 0.5}, []float64{0.25, 0.5 + 1e-9}); err != nil {
		t.Fatalf("agreeing predictions rejected: %v", err)
	}
	if err := checkPredictions([]float64{0.25, 0.5}, []float64{0.25, 0.51}); err == nil {
		t.Fatal("disagreeing RecD and Baseline predictions accepted")
	}
	if err := checkPredictions([]float64{0.25}, []float64{0.25, 0.5}); err == nil {
		t.Fatal("prediction count mismatch accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
	}
	self := tr.selfTimes()
	if self["root"] != 50 || self["a"] != 30 || self["b"] != 30 {
		t.Fatalf("self times = %v", self)
	}
}
