package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/reader"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// local-cold: one in-process session, ShareScans off, Readers = CPUs,
// scanning a clustered multi-file table epoch after epoch. 250-row files
// and 320-row batches do not align, so batches carry rows across files,
// and every batch needs a fresh file decoded: the consumer waits on the
// fill pool, not on its own buffer.
const (
	localRows        = 4000
	localMeanS       = 16.5
	localRowsPerFile = 250
	localBatch       = 320
)

type localCold struct {
	spec  dpp.Spec
	tbl   *landed
	raw   *storage.CachingBackend
	svc   *dpp.Service
	check *stream

	// Program counters over the last phase.
	reader  reader.Stats
	rawHit  storage.CacheStats
	sched   dpp.ServiceSchedulerStats
	batches []*reader.Batch // one epoch's batches, kept for replay
}

func setupLocalCold(seed int64) (workload, error) {
	schema := benchSchema()
	tbl, err := landTable(schema, generate(schema, localRows, localMeanS, seed), localRowsPerFile)
	if err != nil {
		return nil, err
	}
	// The raw-byte cache holds the whole table: after the first epoch
	// fetch is served from memory and decode, dedup and transforms are
	// the work left.
	raw := storage.NewCachingBackend(tbl.store, 2*tbl.storedBytes())
	svc, err := dpp.New(dpp.Config{Backend: raw, Catalog: tbl.catalog})
	if err != nil {
		return nil, err
	}
	spec := dpp.Spec{Spec: benchSpec(localBatch), Readers: maxProcs}
	chk, err := newChecker(schema, spec.Spec)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &localCold{spec: spec, tbl: tbl, raw: raw, svc: svc,
		check: newStream(chk, tbl.rows, localBatch)}, nil
}

func (w *localCold) storedPerSample() float64 {
	return float64(w.tbl.storedBytes()) / float64(len(w.tbl.rows))
}

func (w *localCold) run(ctx context.Context, deadline time.Time, tr *tracer, ph *phase) {
	w.reader = reader.Stats{}
	hit0, sched0 := w.raw.Stats(), w.svc.Stats().Scheduler
	for time.Now().Before(deadline) {
		ep := tr.begin("bench.epoch", -1)
		keep := tr != nil && w.batches == nil
		sess, err := w.svc.Open(ctx, w.spec)
		ph.ops.add("open", err)
		if err != nil {
			tr.end(ep)
			continue
		}
		w.check.reset()
		for {
			t0 := time.Now()
			sp := tr.begin("dpp.Session.Next", ep)
			b, err := sess.Next(ctx)
			tr.end(sp)
			wait := time.Since(t0)
			if errors.Is(err, io.EOF) {
				ph.ops.add("next", nil)
				ph.fail(w.check.done())
				break
			}
			ph.ops.add("next", err)
			if err != nil {
				break
			}
			ph.waits = append(ph.waits, wait)
			ph.samples += int64(b.Size)
			sp = tr.begin("bench.check", ep)
			ph.fail(checkBatch(w.check, b))
			tr.end(sp)
			if keep {
				w.batches = append(w.batches, b)
			}
		}
		st := sess.Stats()
		w.reader.Add(st.Reader)
		sess.Close()
		tr.end(ep)
		ph.mark()
	}
	hit1, sched1 := w.raw.Stats(), w.svc.Stats().Scheduler
	w.rawHit = storage.CacheStats{Hits: hit1.Hits - hit0.Hits, Misses: hit1.Misses - hit0.Misses}
	w.sched = dpp.ServiceSchedulerStats{
		WorkerStall:   sched1.WorkerStall - sched0.WorkerStall,
		ConsumerStall: sched1.ConsumerStall - sched0.ConsumerStall,
	}
}

func (w *localCold) layers(ctx context.Context, tr *tracer, ph *phase, out map[string]float64) error {
	out["storage.raw_hit_ratio"] = ratio(w.rawHit.Hits, w.rawHit.Hits+w.rawHit.Misses)
	out["dwrf.compression_ratio"] = w.tbl.stats.CompressionRatio()
	readerLayers(w.reader, ph, out)
	schedLayers(w.sched, ph, out)
	out["tensor.dedup_factor"] = ratio(w.check.rowsSeen, w.check.uniqSeen)
	fillRows, err := replayFill(ctx, tr, w.tbl, w.spec.Spec)
	if err != nil {
		return err
	}
	dedupRows, err := replayDedup(tr, w.batches, w.spec.Spec)
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	fillLayers(self, fillRows, out)
	out["tensor.dedup_ms_per_ksample"] = perKRows(self["tensor.DedupJagged"], dedupRows)
	return nil
}

func (w *localCold) finish(context.Context, *phase) {}

func (w *localCold) close() { w.svc.Close() }

// replayFill makes one pass over a table's files, layer by layer: lakefs
// Get, DWRF open+decode (inflate included), and the reader's FillFile. It
// returns the rows replayed; the layer times are the spans' self times.
func replayFill(ctx context.Context, tr *tracer, tbl *landed, spec reader.Spec) (int, error) {
	r, err := reader.NewReader(tbl.store, spec)
	if err != nil {
		return 0, err
	}
	root := tr.begin("bench.replay.fill", -1)
	defer tr.end(root)
	rows := 0
	for _, f := range tbl.files {
		sp := tr.begin("lakefs.Store.Get", root)
		data, err := tbl.store.Get(f)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("dwrf.OpenReader+ReadAll", root)
		fr, err := dwrf.OpenReader(data)
		var got []datagen.Sample
		if err == nil {
			got, err = fr.ReadAll()
		}
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("reader.Reader.FillFile", root)
		_, _, _, err = r.FillFile(ctx, f)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		rows += len(got)
	}
	return rows, nil
}

// fillLayers turns a fill replay's span self times into per-1000-row
// layer costs.
func fillLayers(self map[string]time.Duration, rows int, out map[string]float64) {
	per := func(d time.Duration) float64 { return perKRows(d, rows) }
	get, decode := self["lakefs.Store.Get"], self["dwrf.OpenReader+ReadAll"]
	out["lakefs.get_ms_per_ksample"] = per(get)
	out["dwrf.decode_ms_per_ksample"] = per(decode)
	// FillFile runs its own Get and decode; what it spends beyond them is
	// the reader's modelled fetch/decrypt work, reported as modelled.
	out["reader.fetch_model_ms_per_ksample"] = max(0, per(self["reader.Reader.FillFile"]-get-decode))
}

// replayDedup re-runs the convert stage's dedup on delivered batches:
// each group's features are expanded by the benchmark and handed to
// tensor.DedupJagged under a span. It returns the rows replayed.
func replayDedup(tr *tracer, batches []*reader.Batch, spec reader.Spec) (int, error) {
	type input struct {
		keys []string
		js   []tensor.Jagged
	}
	var inputs []input
	rows := 0
	for _, b := range batches {
		for gi, ik := range b.IKJTs {
			in := input{keys: spec.DedupSparseFeatures[gi]}
			inv := ik.InverseLookup()
			for k := 0; k < ik.NumKeys(); k++ {
				in.js = append(in.js, expand(ik.DedupedAt(k), inv))
			}
			inputs = append(inputs, in)
		}
		rows += b.Size
	}
	root := tr.begin("bench.replay.dedup", -1)
	defer tr.end(root)
	for _, in := range inputs {
		sp := tr.begin("tensor.DedupJagged", root)
		_, err := tensor.DedupJagged(in.keys, in.js)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("dedup replay: %w", err)
		}
	}
	return rows, nil
}

// expand is the benchmark's own inverse-index expansion of a
// deduplicated tensor to one row per batch row.
func expand(dd tensor.Jagged, inverse []int32) tensor.Jagged {
	rows := make([][]tensor.Value, len(inverse))
	for r, u := range inverse {
		rows[r] = dd.Row(int(u))
	}
	return tensor.NewJagged(rows)
}
