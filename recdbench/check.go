package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/datagen"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// hashMod is the benchmark's own copy of reader.HashMod's formula. The
// checker applies it to generated values, so a transform that hashed the
// wrong rows, or hashed twice, shows as a value mismatch.
func hashMod(v, size int64) int64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	return int64(x % uint64(size))
}

// groupView is one delivered dedup group: its deduplicated tensors and
// the inverse index mapping each batch row to a unique row.
type groupView struct {
	keys    []string
	dedup   []tensor.Jagged
	inverse []int32
}

// batchView is the part of a delivered batch the checker reads. Tests
// build broken views directly; delivered batches go through viewOf.
type batchView struct {
	size   int
	dense  tensor.Dense
	labels []float32
	plain  []tensor.Jagged // one per spec.SparseFeatures entry
	groups []groupView
}

func viewOf(b *reader.Batch, spec reader.Spec) (batchView, error) {
	v := batchView{size: b.Size, dense: b.Dense, labels: b.Labels}
	for _, key := range spec.SparseFeatures {
		if b.KJT == nil {
			return v, fmt.Errorf("batch has no KJT for %q", key)
		}
		j, ok := b.KJT.Feature(key)
		if !ok {
			return v, fmt.Errorf("batch KJT lacks %q", key)
		}
		v.plain = append(v.plain, j)
	}
	for _, ik := range b.IKJTs {
		g := groupView{keys: ik.Keys(), inverse: ik.InverseLookup()}
		for i := 0; i < ik.NumKeys(); i++ {
			g.dedup = append(g.dedup, ik.DedupedAt(i))
		}
		v.groups = append(v.groups, g)
	}
	return v, nil
}

// checker verifies delivered batches against generated rows, using only
// the benchmark's own expansion and hashing code.
type checker struct {
	spec     reader.Spec
	plainIdx []int   // schema index per spec.SparseFeatures entry
	groupIdx [][]int // schema index per dedup group member
	hashSize map[int]int64
	dense    int
	seen     map[uint64][]int32 // scratch for the maximality check
}

func newChecker(schema *datagen.Schema, spec reader.Spec) (*checker, error) {
	c := &checker{spec: spec, hashSize: map[int]int64{}, dense: schema.Dense, seen: map[uint64][]int32{}}
	idx := func(key string) (int, error) {
		i, ok := schema.FeatureIndex(key)
		if !ok {
			return 0, fmt.Errorf("feature %q not in schema", key)
		}
		return i, nil
	}
	for _, k := range spec.SparseFeatures {
		i, err := idx(k)
		if err != nil {
			return nil, err
		}
		c.plainIdx = append(c.plainIdx, i)
	}
	for _, g := range spec.DedupSparseFeatures {
		var gi []int
		for _, k := range g {
			i, err := idx(k)
			if err != nil {
				return nil, err
			}
			gi = append(gi, i)
		}
		c.groupIdx = append(c.groupIdx, gi)
	}
	for _, tr := range spec.SparseTransforms {
		h, ok := tr.(reader.HashMod)
		if !ok {
			return nil, fmt.Errorf("checker has no reference for transform %q", tr.Name())
		}
		for _, k := range h.Features {
			i, err := idx(k)
			if err != nil {
				return nil, err
			}
			c.hashSize[i] = h.TableSize
		}
	}
	return c, nil
}

// rowEqual reports whether got equals generated list want after the
// spec's transforms for schema feature fi.
func (c *checker) rowEqual(got []tensor.Value, want []int64, fi int) bool {
	if len(got) != len(want) {
		return false
	}
	size, hashed := c.hashSize[fi]
	for i, w := range want {
		if hashed {
			w = hashMod(w, size)
		}
		if got[i] != w {
			return false
		}
	}
	return true
}

// batch checks one delivered batch against the generated rows it must
// carry and writes each group's unique-row count into uniques.
func (c *checker) batch(v batchView, rows []datagen.Sample, uniques []int) error {
	if v.size != len(rows) {
		return fmt.Errorf("batch has %d rows, want %d", v.size, len(rows))
	}
	if len(v.labels) != len(rows) {
		return fmt.Errorf("batch has %d labels for %d rows", len(v.labels), len(rows))
	}
	if v.dense.RowsN != len(rows) || v.dense.Cols != c.dense {
		return fmt.Errorf("dense is %dx%d, want %dx%d", v.dense.RowsN, v.dense.Cols, len(rows), c.dense)
	}
	for r, s := range rows {
		if v.labels[r] != float32(s.Label) {
			return fmt.Errorf("row %d: label %v, want %d", r, v.labels[r], s.Label)
		}
		got := v.dense.Row(r)
		for d, want := range s.Dense {
			if math.Float32bits(got[d]) != math.Float32bits(want) {
				return fmt.Errorf("row %d: dense[%d] = %v, want %v", r, d, got[d], want)
			}
		}
	}
	if len(v.plain) != len(c.plainIdx) {
		return fmt.Errorf("batch has %d plain features, want %d", len(v.plain), len(c.plainIdx))
	}
	for k, j := range v.plain {
		fi := c.plainIdx[k]
		if j.Rows() != len(rows) {
			return fmt.Errorf("%s: %d rows, want %d", c.spec.SparseFeatures[k], j.Rows(), len(rows))
		}
		for r, s := range rows {
			if !c.rowEqual(j.Row(r), s.Sparse[fi], fi) {
				return fmt.Errorf("row %d: %s differs from the generated sample", r, c.spec.SparseFeatures[k])
			}
		}
	}
	if len(v.groups) != len(c.groupIdx) {
		return fmt.Errorf("batch has %d dedup groups, want %d", len(v.groups), len(c.groupIdx))
	}
	for g, gv := range v.groups {
		u, err := c.group(g, gv, rows)
		if err != nil {
			return fmt.Errorf("dedup group %d: %w", g, err)
		}
		uniques[g] = u
	}
	return nil
}

// group expands one dedup group through its inverse index, compares every
// row with the generated sample, and checks the group is maximal: no two
// of its unique rows are equal in every member feature.
func (c *checker) group(g int, gv groupView, rows []datagen.Sample) (int, error) {
	want := c.spec.DedupSparseFeatures[g]
	if !slices.Equal(gv.keys, want) || len(gv.dedup) != len(want) {
		return 0, fmt.Errorf("keys %v, want %v", gv.keys, want)
	}
	if len(gv.inverse) != len(rows) {
		return 0, fmt.Errorf("inverse has %d entries for %d rows", len(gv.inverse), len(rows))
	}
	unique := gv.dedup[0].Rows()
	for k, d := range gv.dedup {
		if d.Rows() != unique {
			return 0, fmt.Errorf("%s has %d unique rows, %s has %d", want[k], d.Rows(), want[0], unique)
		}
	}
	for r, s := range rows {
		u := gv.inverse[r]
		if u < 0 || int(u) >= unique {
			return 0, fmt.Errorf("row %d: inverse index %d out of range [0,%d)", r, u, unique)
		}
		for k, d := range gv.dedup {
			fi := c.groupIdx[g][k]
			if !c.rowEqual(d.Row(int(u)), s.Sparse[fi], fi) {
				return 0, fmt.Errorf("row %d: %s differs from the generated sample after expansion", r, want[k])
			}
		}
	}
	clear(c.seen)
	for u := 0; u < unique; u++ {
		h := uint64(14695981039346656037)
		for _, d := range gv.dedup {
			for _, x := range d.Row(u) {
				h = (h ^ uint64(x)) * 1099511628211
			}
			h = (h ^ 0xff) * 1099511628211 // row separator
		}
		for _, prev := range c.seen[h] {
			if uniqueRowsEqual(gv.dedup, int(prev), u) {
				return 0, fmt.Errorf("not maximal: unique rows %d and %d are equal", prev, u)
			}
		}
		c.seen[h] = append(c.seen[h], int32(u))
	}
	return unique, nil
}

func uniqueRowsEqual(dedup []tensor.Jagged, a, b int) bool {
	for _, d := range dedup {
		if !slices.Equal(d.Row(a), d.Row(b)) {
			return false
		}
	}
	return true
}

// distinctRows counts the distinct member-feature tuples of one dedup
// group among generated rows: the unique-row count a maximal dedup must
// reach, computed without the program's deduper.
func distinctRows(rows []datagen.Sample, members []int) int {
	seen := make(map[uint64][]int, len(rows))
	n := 0
	for r := range rows {
		h := uint64(14695981039346656037)
		for _, fi := range members {
			for _, x := range rows[r].Sparse[fi] {
				h = (h ^ uint64(x)) * 1099511628211
			}
			h = (h ^ 0xff) * 1099511628211
		}
		dup := false
		for _, p := range seen[h] {
			same := true
			for _, fi := range members {
				if !slices.Equal(rows[p].Sparse[fi], rows[r].Sparse[fi]) {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], r)
			n++
		}
	}
	return n
}

// stream checks a sequence of batches against the rows they must carry,
// in order, with the batch boundaries of a serial scan: every batch holds
// batchSize rows except a final short one.
type stream struct {
	c       *checker
	want    []datagen.Sample
	batch   int
	refUniq [][]int // per batch index, per group: distinctRows of its rows
	pos     int
	uniques []int
	// rowsSeen/uniqSeen is tensor.dedup_factor. Every batch's unique
	// count is checked equal to the benchmark's own distinct-row count, so
	// it is the factor of the generated samples.
	rowsSeen int64 // batch rows checked, times groups
	uniqSeen int64 // unique rows delivered, summed over groups
}

func newStream(c *checker, want []datagen.Sample, batchSize int) *stream {
	s := &stream{c: c, want: want, batch: batchSize, uniques: make([]int, len(c.groupIdx))}
	for lo := 0; lo < len(want); lo += batchSize {
		rows := want[lo:min(lo+batchSize, len(want))]
		ref := make([]int, len(c.groupIdx))
		for g, members := range c.groupIdx {
			ref[g] = distinctRows(rows, members)
		}
		s.refUniq = append(s.refUniq, ref)
	}
	return s
}

// reset starts the next pass (epoch) over the same rows.
func (s *stream) reset() { s.pos = 0 }

// next checks the next delivered batch.
func (s *stream) next(v batchView) error {
	if s.pos%s.batch != 0 || s.pos >= len(s.want) {
		return fmt.Errorf("batch at row %d of %d: stream has no batch here", s.pos, len(s.want))
	}
	end := s.pos + v.size
	if v.size != min(s.batch, len(s.want)-s.pos) {
		return fmt.Errorf("batch at row %d has %d rows, want %d", s.pos, v.size, min(s.batch, len(s.want)-s.pos))
	}
	if err := s.c.batch(v, s.want[s.pos:end], s.uniques); err != nil {
		return fmt.Errorf("batch at row %d: %w", s.pos, err)
	}
	ref := s.refUniq[s.pos/s.batch]
	for g, u := range s.uniques {
		if u != ref[g] {
			return fmt.Errorf("batch at row %d: dedup group %d kept %d unique rows, the generated rows have %d distinct", s.pos, g, u, ref[g])
		}
		s.rowsSeen += int64(v.size)
		s.uniqSeen += int64(u)
	}
	s.pos = end
	return nil
}

// done checks that the pass delivered every row.
func (s *stream) done() error {
	if s.pos != len(s.want) {
		return fmt.Errorf("stream ended at row %d of %d", s.pos, len(s.want))
	}
	return nil
}

// checkBatch checks one delivered batch against the stream's next rows.
func checkBatch(s *stream, b *reader.Batch) error {
	v, err := viewOf(b, s.c.spec)
	if err != nil {
		return err
	}
	return s.next(v)
}

// checkPredictions requires RecD and Baseline Predict to agree to float32
// rounding and every probability to be finite.
func checkPredictions(recd, base []float64) error {
	if len(recd) != len(base) {
		return fmt.Errorf("RecD gave %d predictions, Baseline %d", len(recd), len(base))
	}
	for i := range recd {
		a, b := recd[i], base[i]
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("row %d: non-finite prediction %v / %v", i, a, b)
		}
		if math.Abs(a-b) > 1e-5*math.Max(1, math.Abs(b)) {
			return fmt.Errorf("row %d: RecD predicts %v, Baseline %v", i, a, b)
		}
	}
	return nil
}

// clusterRows is the benchmark's own CLUSTER BY session, SORT BY
// timestamp: sessions in order of their first timestamp (ties by session
// id), rows within a session by timestamp, stable otherwise. Live-tail
// files are checked against this order, not against etl's.
func clusterRows(rows []datagen.Sample) []datagen.Sample {
	first := map[int64]int64{}
	for _, r := range rows {
		if t, ok := first[r.SessionID]; !ok || r.Timestamp < t {
			first[r.SessionID] = r.Timestamp
		}
	}
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b datagen.Sample) int {
		if fa, fb := first[a.SessionID], first[b.SessionID]; fa != fb {
			return cmpInt(fa, fb)
		}
		if a.SessionID != b.SessionID {
			return cmpInt(a.SessionID, b.SessionID)
		}
		return cmpInt(a.Timestamp, b.Timestamp)
	})
	return out
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// rowsEqual compares two generated samples field by field.
func rowsEqual(a, b datagen.Sample) bool {
	if a.SessionID != b.SessionID || a.UserID != b.UserID || a.RequestID != b.RequestID ||
		a.Timestamp != b.Timestamp || a.Label != b.Label || !slices.Equal(a.Dense, b.Dense) ||
		len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for i := range a.Sparse {
		if !slices.Equal(a.Sparse[i], b.Sparse[i]) {
			return false
		}
	}
	return true
}
