package main

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/trainer"
)

// The inputs every workload shares. README.md records the make-up.
const (
	table         = "events"
	hashTableSize = 1 << 24
	stripeRows    = 128
)

// schemaSeed fixes the schema's per-feature draws (list lengths, change
// probabilities), so every --seed runs the same input shape and seeds
// differ only in the generated rows.
const schemaSeed = 12

// benchSchema is three synchronously-updated user sequence features, three
// element-wise user features, one item feature and four dense features.
func benchSchema() *datagen.Schema {
	return datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 4, SeqLen: 32, Seed: schemaSeed,
	})
}

// benchSpec is the DataLoader spec all workloads submit: two plain
// features, three dedup groups (the sequence sync group as one grouped
// IKJT, two element features alone) and one HashMod transform on a
// deduplicated feature, so the transform runs on unique rows only.
func benchSpec(batch int) reader.Spec {
	return reader.Spec{
		Table:               table,
		BatchSize:           batch,
		SparseFeatures:      []string{"item_0", "user_elem_2"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0"}, {"user_elem_1"}},
		SparseTransforms:    []reader.SparseTransform{reader.HashMod{Features: []string{"user_seq_0"}, TableSize: hashTableSize}},
	}
}

// generate returns the first rows log records, in inference-time order,
// of an hour of sessions with mean meanS samples each. Cutting at a fixed
// row count keeps table size, and so epoch length and cache footprint,
// the same for every seed. An hour that falls short is drawn again with
// twice the sessions, so the result still depends on the seed alone.
func generate(schema *datagen.Schema, rows int, meanS float64, seed int64) []datagen.Sample {
	for sessions := int(float64(rows)/meanS*5/4) + 1; ; sessions *= 2 {
		logs := datagen.NewGenerator(schema, datagen.GeneratorConfig{
			Sessions: sessions, MeanSamplesPerSession: meanS, Seed: seed,
		}).GeneratePartition()
		if len(logs) >= rows {
			return logs[:rows]
		}
	}
}

// landed is a DWRF table in lakefs plus the rows it must hold, in file
// order.
type landed struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
	files   []string
	rows    []datagen.Sample
	stats   dwrf.PartitionStats
}

// landTable runs the batch ETL path (split logs, join, cluster by
// session) and writes hour 0 as DWRF files of rowsPerFile rows. It checks
// that dwrf.ReadPartition round-trips the table to the generated rows, so
// stored_bytes_per_sample is measured on a table known to be right.
func landTable(schema *datagen.Schema, logs []datagen.Sample, rowsPerFile int) (*landed, error) {
	feats, events := etl.SplitLogs(logs)
	rows := etl.ClusterBySession(etl.Join(feats, events))
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	st, err := dwrf.WritePartition(store, catalog, table, 0, schema, rows,
		dwrf.TableOptions{RowsPerFile: rowsPerFile, Writer: dwrf.WriterOptions{StripeRows: stripeRows}})
	if err != nil {
		return nil, fmt.Errorf("land table: %w", err)
	}
	files, err := catalog.AllFiles(table)
	if err != nil {
		return nil, err
	}
	want := clusterRows(logs)
	back, err := dwrf.ReadPartition(store, catalog, table, 0)
	if err != nil {
		return nil, fmt.Errorf("read back table: %w", err)
	}
	if err := sameRows(back, want); err != nil {
		return nil, fmt.Errorf("landed table: %w", err)
	}
	return &landed{store: store, catalog: catalog, files: files, rows: want, stats: st}, nil
}

func sameRows(got, want []datagen.Sample) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !rowsEqual(got[i], want[i]) {
			return fmt.Errorf("row %d differs from the generated sample", i)
		}
	}
	return nil
}

// storedBytes is the DWRF bytes the table occupies in lakefs.
func (l *landed) storedBytes() int64 { return l.store.Stats().StoredBytes }

// decodedBytes is the ScanCache cost of the whole table under spec.
func (l *landed) decodedBytes(spec reader.Spec) (int64, error) {
	r, err := reader.NewReader(l.store, spec)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range l.files {
		fs, err := r.ScanFile(context.Background(), f)
		if err != nil {
			return 0, err
		}
		total += fs.MemBytes()
	}
	return total, nil
}

// benchModel is a small DLRM over every feature benchSpec consumes, with
// attention pooling on the grouped sequence feature the paper's RM1
// deduplicates.
func benchModel(seed int64) (*trainer.Model, error) {
	return trainer.New(trainer.Config{
		EmbDim: 8, DenseIn: 4, BottomHidden: []int{16}, TopHidden: []int{16},
		Features: []trainer.FeatureConfig{
			{Key: "user_seq_0", Pool: trainer.AttentionPool, TableRows: 1 << 12},
			{Key: "user_seq_1", Pool: trainer.SumPool, TableRows: 1 << 12},
			{Key: "user_seq_2", Pool: trainer.SumPool, TableRows: 1 << 12},
			{Key: "user_elem_0", Pool: trainer.MeanPool, TableRows: 1 << 12},
			{Key: "user_elem_1", Pool: trainer.MaxPool, TableRows: 1 << 12},
			{Key: "user_elem_2", Pool: trainer.SumPool, TableRows: 1 << 12},
			{Key: "item_0", Pool: trainer.SumPool, TableRows: 1 << 12},
		},
		LR: 0.01, Seed: seed,
	})
}
