package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppshard"
	"repro/internal/reader"
	"repro/internal/trainer"
)

// fleet-train: one trainer runs trainer.RecD TrainStep on every batch it
// reads from a two-shard dppshard fleet on loopback (one file-unit
// connection per shard, merged in file order). Each shard's ScanCache is
// budgeted at 3/4 of the table, so no shard could hold it alone, but the
// fleet's two caches hold it together and setup warms them. One fleet
// session reads the table fleetPasses times over (its file list repeats),
// so session opens are a small share of batch waits.
const (
	fleetRows        = 4096
	fleetMeanS       = 16.5
	fleetRowsPerFile = 256
	fleetBatch       = 128
	fleetShards      = 2
	fleetPasses      = 8
	// predictEvery is how often (in batches) RecD and Baseline Predict
	// are compared before the train step.
	predictEvery = 16
)

type fleetTrain struct {
	spec    dpp.Spec
	tbl     *landed
	servers []*server
	fleet   *dppshard.Fleet
	model   *trainer.Model
	check   *stream // over fleetPasses passes of the table
	warmChk *stream // over one pass

	net       netDelta
	reader    reader.Stats
	skew      float64
	reroutes  int64
	lookups   [2]int64 // embedding rows gathered: RecD, and Baseline's for the same batches
	rows      int64
	expandRow int
}

func setupFleetTrain(seed int64) (workload, error) {
	schema := benchSchema()
	tbl, err := landTable(schema, generate(schema, fleetRows, fleetMeanS, seed), fleetRowsPerFile)
	if err != nil {
		return nil, err
	}
	var files []string
	for i := 0; i < fleetPasses; i++ {
		files = append(files, tbl.files...)
	}
	spec := dpp.Spec{Spec: benchSpec(fleetBatch), Files: files, ShareScans: true}
	decoded, err := tbl.decodedBytes(spec.Spec)
	if err != nil {
		return nil, err
	}
	w := &fleetTrain{spec: spec, tbl: tbl}
	var addrs []string
	for i := 0; i < fleetShards; i++ {
		s, err := startServer(dpp.Config{Backend: tbl.store, Catalog: tbl.catalog, ScanCacheBytes: decoded * 3 / 4})
		if err != nil {
			w.close()
			return nil, err
		}
		w.servers = append(w.servers, s)
		addrs = append(addrs, s.addr)
	}
	if w.fleet, err = dppshard.New(dppshard.Config{Addrs: addrs, Backend: tbl.store}); err != nil {
		w.close()
		return nil, err
	}
	if w.model, err = benchModel(seed); err != nil {
		w.close()
		return nil, err
	}
	chk, err := newChecker(schema, spec.Spec)
	if err != nil {
		w.close()
		return nil, err
	}
	var rows []datagen.Sample
	for i := 0; i < fleetPasses; i++ {
		rows = append(rows, tbl.rows...)
	}
	w.check = newStream(chk, rows, fleetBatch)
	w.warmChk = newStream(chk, tbl.rows, fleetBatch)
	// Warm the shards' caches with one checked pass that does not train.
	warm := newPhase()
	warmSpec := spec
	warmSpec.Files = tbl.files
	w.epoch(context.Background(), warmSpec, w.warmChk, nil, warm, false)
	if warm.problem != nil {
		w.close()
		return nil, fmt.Errorf("warm-up epoch: %w", warm.problem)
	}
	return w, nil
}

func (w *fleetTrain) storedPerSample() float64 {
	return float64(w.tbl.storedBytes()) / float64(len(w.tbl.rows))
}

// epoch runs one fleet session over spec's files, checking every batch
// against chk and, when train is set, training on it.
func (w *fleetTrain) epoch(ctx context.Context, spec dpp.Spec, chk *stream, tr *tracer, ph *phase, train bool) {
	ep := tr.begin("bench.epoch", -1)
	defer tr.end(ep)
	sess, err := w.fleet.Open(ctx, spec)
	ph.ops.add("open", err)
	if err != nil {
		return
	}
	defer sess.Close()
	chk.reset()
	for n := 0; ; n++ {
		t0 := time.Now()
		sp := tr.begin("dppshard.Session.Next", ep)
		b, err := sess.Next(ctx)
		tr.end(sp)
		wait := time.Since(t0)
		if errors.Is(err, io.EOF) {
			ph.ops.add("next", nil)
			ph.fail(chk.done())
			break
		}
		ph.ops.add("next", err)
		if err != nil {
			return
		}
		ph.waits = append(ph.waits, wait)
		ph.samples += int64(b.Size)
		sp = tr.begin("bench.check", ep)
		ph.fail(checkBatch(chk, b))
		tr.end(sp)
		if !train {
			continue
		}
		if n%predictEvery == 0 {
			ph.fail(w.comparePredictions(b))
		}
		ph.ops.add("train_step", w.trainStep(b, tr, ep, ph))
		ph.mark() // a session spans several rounds
	}
	stats, reroutes := sess.ShardStats()
	w.reroutes += reroutes
	lo, hi := math.MaxInt, 0
	for _, s := range stats {
		lo, hi = min(lo, s.Served), max(hi, s.Served)
		if s.StatsOK {
			w.reader.Add(s.Stats.Reader)
		}
	}
	if lo > 0 {
		w.skew = max(w.skew, float64(hi)/float64(lo))
	}
}

func (w *fleetTrain) comparePredictions(b *reader.Batch) error {
	recd, err := w.model.Predict(b, trainer.RecD)
	if err != nil {
		return err
	}
	base, err := w.model.Predict(b, trainer.Baseline)
	if err != nil {
		return err
	}
	return checkPredictions(recd, base)
}

// trainStep trains on one batch. Untraced it is TrainStep; traced it makes
// the same calls one by one, so forward, backward and the optimizer step
// each get a span.
func (w *fleetTrain) trainStep(b *reader.Batch, tr *tracer, parent int32, ph *phase) error {
	var loss float64
	if tr == nil {
		var err error
		if loss, _, err = w.model.TrainStep(b, trainer.RecD); err != nil {
			return err
		}
	} else {
		sp := tr.begin("trainer.Model.Forward", parent)
		logits, st, cost, err := w.model.Forward(b, trainer.RecD)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("trainer.backward", parent)
		l, dLogits, err := trainer.BCEWithLogits(logits, b.Labels)
		if err == nil {
			err = w.model.Backward(st, dLogits)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("trainer.Model.Step", parent)
		w.model.Step()
		tr.end(sp)
		loss = l
		w.lookups[0] += cost.EmbLookups
		w.lookups[1] += expandedValues(b)
		w.rows += int64(b.Size)

		// The trainer's IKJT expansion, on the same batch.
		sp = tr.begin("tensor.IKJT.ToKJT", parent)
		for _, ik := range b.IKJTs {
			ik.ToKJT()
		}
		tr.end(sp)
		w.expandRow += b.Size
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		ph.fail(fmt.Errorf("training loss became %v", loss))
	}
	return nil
}

// expandedValues is how many embedding rows a Baseline trainer gathers for
// b: every value of every feature with its deduplicated groups expanded.
func expandedValues(b *reader.Batch) int64 {
	var n int64
	if b.KJT != nil {
		n += int64(b.KJT.NumValues())
	}
	for _, ik := range b.IKJTs {
		inv := ik.InverseLookup()
		for k := 0; k < ik.NumKeys(); k++ {
			dd := ik.DedupedAt(k)
			for _, u := range inv {
				n += int64(dd.RowLen(int(u)))
			}
		}
	}
	return n
}

func (w *fleetTrain) run(ctx context.Context, deadline time.Time, tr *tracer, ph *phase) {
	w.net, w.reader, w.skew, w.reroutes = netDelta{}, reader.Stats{}, 0, 0
	w.lookups, w.rows, w.expandRow = [2]int64{}, 0, 0
	snaps := make([]netSnap, len(w.servers))
	for i, s := range w.servers {
		snaps[i] = s.snap()
	}
	for time.Now().Before(deadline) {
		w.epoch(ctx, w.spec, w.check, tr, ph, true)
	}
	for i, s := range w.servers {
		w.net.add(snaps[i], s.snap())
	}
}

func (w *fleetTrain) layers(_ context.Context, tr *tracer, ph *phase, out map[string]float64) error {
	w.net.report(ph, out)
	readerLayers(w.reader, ph, out)
	out["dppshard.shard_skew"] = w.skew
	out["dppshard.reroutes"] = float64(w.reroutes)
	out["tensor.dedup_factor"] = ratio(w.check.rowsSeen, w.check.uniqSeen)
	out["trainer.unique_row_ratio"] = ratio(w.lookups[0], w.lookups[1])
	self := tr.selfTimes()
	rows := int(w.rows)
	out["trainer.forward_ms_per_ksample"] = perKRows(self["trainer.Model.Forward"], rows)
	out["trainer.backward_ms_per_ksample"] = perKRows(self["trainer.backward"], rows)
	out["trainer.step_ms_per_ksample"] = perKRows(self["trainer.Model.Step"], rows)
	out["tensor.expand_ms_per_ksample"] = perKRows(self["tensor.IKJT.ToKJT"], w.expandRow)
	return nil
}

func (w *fleetTrain) finish(context.Context, *phase) {}

func (w *fleetTrain) close() {
	for _, s := range w.servers {
		s.close()
	}
}
