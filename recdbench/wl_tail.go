package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/landing"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
)

// live-tail: an open-loop generator lands joined, low-duplication rows
// (S ≈ 2) through landing.Writer with Cluster on, one sealed file every
// 1/tailFilesPerSec seconds, advancing the partition hour every
// tailFilesPerHour files. One Follow session drains the tail. Retention
// keeps tailKeepHours partitions and only ever drops hours the consumer
// has fully received. A file is exactly one batch, so every Next waits
// for one freshly published file and a file's last row is delivered as
// soon as the file is decoded.
const (
	tailMeanS        = 2
	tailFileRows     = 64
	tailBatch        = 64
	tailFilesPerSec  = 40
	tailFilesPerHour = 32
	tailKeepHours    = 2
	// tailReplayFiles bounds how many landed files the traced run keeps
	// for its layer-by-layer replay of the landing path.
	tailReplayFiles = 128
)

// tailFile is one file's worth of raw log records and the rows the
// benchmark expects the file to deliver, in its own clustered order.
type tailFile struct {
	index  int
	hour   int64
	feats  []etl.FeatureRecord
	events []etl.EventRecord
	want   []datagen.Sample
	due    time.Time // when it was due to land; zero for set-up's file
}

type liveTail struct {
	seed    int64
	schema  *datagen.Schema
	spec    dpp.Spec
	chk     *checker
	store   *lakefs.Store
	catalog *lakefs.Catalog
	svc     *dpp.Service
	writer  *landing.Writer
	sess    *dpp.Session

	// Generator side.
	landed    int   // files landed so far
	landedRow int   // rows in those files
	hourEnd   []int // hourEnd[h]: rows landed through hour index h

	// Consumer side.
	delivered  int // rows received and checked
	wantByHour map[int64][]datagen.Sample
	rowsSeen   int64
	uniqSeen   int64

	// Last phase's observations.
	fresh, late []time.Duration
	lag         []int // FollowLag after each Next
	reader0     reader.Stats
	reader      reader.Stats
	sched       dpp.ServiceSchedulerStats
	replay      []tailFile // the last files landed in a traced phase
	landRows    int
	batches     []*reader.Batch
}

func setupLiveTail(seed int64) (workload, error) {
	schema := benchSchema()
	w := &liveTail{seed: seed, schema: schema, store: lakefs.NewStore(), catalog: lakefs.NewCatalog(),
		spec: dpp.Spec{Spec: benchSpec(tailBatch), Readers: maxProcs, Follow: true}, wantByHour: map[int64][]datagen.Sample{}}
	var err error
	if w.chk, err = newChecker(schema, w.spec.Spec); err != nil {
		return nil, err
	}
	if w.svc, err = dpp.New(dpp.Config{Backend: w.store, Catalog: w.catalog}); err != nil {
		return nil, err
	}
	w.writer, err = landing.NewWriter(landing.Config{Store: w.store, Catalog: w.catalog, Table: table,
		Schema: schema, FlushRows: tailFileRows, Cluster: true, Writer: dwrf.WriterOptions{StripeRows: stripeRows}})
	if err != nil {
		w.svc.Close()
		return nil, err
	}
	// The table must exist before a session can tail it; the first file
	// is landed and received here, so the timed phase starts on a session
	// that is already streaming.
	f := w.makeFile()
	if err := w.land(f, nil); err != nil {
		w.close()
		return nil, err
	}
	if w.sess, err = w.svc.Open(context.Background(), w.spec); err != nil {
		w.close()
		return nil, err
	}
	warm := newPhase()
	if w.consume(context.Background(), f, nil, warm); warm.problem != nil {
		w.close()
		return nil, fmt.Errorf("first file: %w", warm.problem)
	}
	return w, nil
}

// makeFile generates the next file's rows: its own small hour of
// sessions, seeded from the run seed and the file index, so the inputs
// depend on --seed alone and the run never holds more than a few files.
func (w *liveTail) makeFile() tailFile {
	k := w.landed
	rows := generate(w.schema, tailFileRows, tailMeanS, w.seed*1_000_003+int64(k))
	f := tailFile{index: k, hour: int64(k/tailFilesPerHour) * 3600, want: clusterRows(rows)}
	f.feats, f.events = etl.SplitLogs(rows)
	return f
}

// land lands one file through the writer's join path.
func (w *liveTail) land(f tailFile, tr *tracer) error {
	sp := tr.begin("landing.Writer.LandJoined", -1)
	n, err := w.writer.LandJoined(f.hour, f.feats, f.events)
	tr.end(sp)
	if err != nil {
		return err
	}
	if n != tailFileRows {
		return fmt.Errorf("join kept %d of %d rows", n, tailFileRows)
	}
	if st := w.writer.Stats(); st.FilesLanded != int64(f.index+1) {
		return fmt.Errorf("writer sealed %d files after %d appends", st.FilesLanded, f.index+1)
	}
	w.landed, w.landedRow = f.index+1, w.landedRow+n
	h := f.index / tailFilesPerHour
	for len(w.hourEnd) <= h {
		w.hourEnd = append(w.hourEnd, 0)
	}
	w.hourEnd[h] = w.landedRow
	return nil
}

func (w *liveTail) storedPerSample() float64 {
	return float64(w.store.Stats().WrittenBytes) / float64(w.landedRow)
}

func (w *liveTail) run(ctx context.Context, deadline time.Time, tr *tracer, ph *phase) {
	w.fresh, w.late, w.lag, w.replay, w.landRows = nil, nil, nil, nil, 0
	w.reader0 = w.sess.Stats().Reader
	sched0 := w.svc.Stats().Scheduler
	period := time.Second / tailFilesPerSec
	start := time.Now()
	total := int(deadline.Sub(start) / period)
	published := make(chan tailFile, total)
	var delivered atomic.Int64 // rows the consumer has received, for retention
	delivered.Store(int64(w.delivered))
	genPh := newPhase() // the generator's own ledger, merged after it ends
	gen := make(chan error, 1)

	// Generator: open loop, one file per period from start, each landed
	// at its due time however late the previous one ran. A file's rows are
	// generated half a period before it is due, clear of the decode of the
	// file landed before it.
	go func() {
		defer close(published)
		for i := 0; i < total; i++ {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due.Add(-period / 2)))
			f := w.makeFile()
			f.due = due
			time.Sleep(time.Until(f.due))
			w.late = append(w.late, time.Since(f.due))
			if f.index%tailFilesPerHour == 0 {
				w.retain(genPh, int(delivered.Load()))
			}
			err := w.land(f, tr)
			genPh.ops.add("land_file", err)
			if err != nil {
				gen <- err
				return
			}
			w.landRows += tailFileRows
			if tr != nil {
				w.replay = append(w.replay, f)
				if len(w.replay) > tailReplayFiles {
					w.replay = w.replay[1:]
				}
			}
			published <- f
		}
		gen <- nil
	}()

	// Consumer: take each landed file in landing order and pull until its
	// rows have all arrived.
	for f := range published {
		if ph.problem == nil {
			w.consume(ctx, f, tr, ph)
			delivered.Store(int64(w.delivered))
		}
	}
	ph.fail(<-gen)
	ph.ops.merge(genPh.ops)
	ph.fail(genPh.problem)
	w.reader = w.sess.Stats().Reader
	sched1 := w.svc.Stats().Scheduler
	w.sched = dpp.ServiceSchedulerStats{
		WorkerStall:   sched1.WorkerStall - sched0.WorkerStall,
		ConsumerStall: sched1.ConsumerStall - sched0.ConsumerStall,
	}
}

// consume pulls from the Follow session until every row of landed file f
// has arrived and been checked, then records when its last row did.
func (w *liveTail) consume(ctx context.Context, f tailFile, tr *tracer, ph *phase) {
	chk := newStream(w.chk, f.want, tailBatch)
	for chk.pos < len(f.want) {
		t0 := time.Now()
		sp := tr.begin("dpp.Session.Next", -1)
		b, err := w.sess.Next(ctx)
		tr.end(sp)
		wait := time.Since(t0)
		ph.ops.add("next", err)
		if err != nil {
			ph.fail(fmt.Errorf("follow session: %w", err))
			return
		}
		ph.waits = append(ph.waits, wait)
		ph.samples += int64(b.Size)
		w.lag = append(w.lag, w.sess.FollowLag())
		sp = tr.begin("bench.check", -1)
		err = checkBatch(chk, b)
		tr.end(sp)
		if err != nil {
			ph.fail(fmt.Errorf("file %d: %w", f.index, err))
			return
		}
		if tr != nil && len(w.batches) < 64 {
			w.batches = append(w.batches, b)
		}
	}
	if !f.due.IsZero() {
		w.fresh = append(w.fresh, time.Since(f.due))
	}
	w.delivered += len(f.want)
	w.rowsSeen += chk.rowsSeen
	w.uniqSeen += chk.uniqSeen
	// Keep the rows of the hours the table still holds, for the read-back
	// check at the end.
	w.wantByHour[f.hour] = append(w.wantByHour[f.hour], f.want...)
	if f.index%tailFilesPerHour == 0 {
		if hours := w.catalog.Partitions(table); len(hours) > 0 {
			for h := range w.wantByHour {
				if h < hours[0] {
					delete(w.wantByHour, h)
				}
			}
		}
	}
	ph.mark()
}

// retain drops the partitions retention no longer keeps, but only when
// the consumer has received every row of every hour it would drop.
func (w *liveTail) retain(ph *phase, delivered int) {
	hours := w.catalog.Partitions(table)
	if len(hours) <= tailKeepHours {
		return
	}
	dropThrough := int(hours[len(hours)-tailKeepHours-1] / 3600)
	if delivered < w.hourEnd[dropThrough] {
		return
	}
	_, err := w.catalog.EnforceRetention(w.store, table, tailKeepHours)
	ph.ops.add("retention_drop", err)
}

func (w *liveTail) layers(_ context.Context, tr *tracer, ph *phase, out map[string]float64) error {
	out["freshness_p50_ms"] = ms(percentile(w.fresh, 0.50))
	out["freshness_p99_ms"] = ms(percentile(w.fresh, 0.99))
	out["bench.generator_late_ms_p99"] = ms(percentile(w.late, 0.99))
	out["dpp.follow_lag_files_p99"] = float64(percentile(w.lag, 0.99))
	out["tensor.dedup_factor"] = ratio(w.rowsSeen, w.uniqSeen)
	st := w.reader
	st.FillTime -= w.reader0.FillTime
	st.ConvertTime -= w.reader0.ConvertTime
	st.ProcessTime -= w.reader0.ProcessTime
	st.ReadBytes -= w.reader0.ReadBytes
	st.RowsDecoded -= w.reader0.RowsDecoded
	readerLayers(st, ph, out)
	schedLayers(w.sched, ph, out)

	// Replay the landing path layer by layer on the last files this phase
	// landed: join, cluster, DWRF encode, and publish (Put + AddFile) into
	// a scratch store, then decode what was encoded.
	scratch, scratchCat := lakefs.NewStore(), lakefs.NewCatalog()
	root := tr.begin("bench.replay.landing", -1)
	var raw, compressed int64
	for _, f := range w.replay {
		sp := tr.begin("etl.Join", root)
		joined := etl.Join(f.feats, f.events)
		tr.end(sp)
		sp = tr.begin("etl.ClusterBySession", root)
		rows := etl.ClusterBySession(joined)
		tr.end(sp)
		sp = tr.begin("dwrf.FileWriter", root)
		fw, err := dwrf.NewFileWriter(w.schema, dwrf.WriterOptions{StripeRows: stripeRows})
		var data []byte
		var fs dwrf.FileStats
		if err == nil {
			if err = fw.WriteRows(rows); err == nil {
				data, fs, err = fw.Finish()
			}
		}
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		raw, compressed = raw+fs.RawBytes, compressed+fs.CompressedBytes
		path := fmt.Sprintf("replay/hour=%d/part-%05d.dwrf", f.hour, f.index)
		sp = tr.begin("lakefs.publish", root)
		err = scratch.Put(path, data)
		scratchCat.AddFile(table, f.hour, path)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("dwrf.OpenReader+ReadAll", root)
		fr, err := dwrf.OpenReader(data)
		if err == nil {
			_, err = fr.ReadAll()
		}
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
	}
	tr.end(root)
	dedupRows, err := replayDedup(tr, w.batches, w.spec.Spec)
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	rows := len(w.replay) * tailFileRows
	out["landing.append_ms_per_ksample"] = perKRows(self["landing.Writer.LandJoined"], w.landRows)
	out["etl.cluster_ms_per_ksample"] = perKRows(self["etl.ClusterBySession"], rows)
	out["dwrf.encode_ms_per_ksample"] = perKRows(self["dwrf.FileWriter"], rows)
	out["dwrf.decode_ms_per_ksample"] = perKRows(self["dwrf.OpenReader+ReadAll"], rows)
	out["dwrf.compression_ratio"] = ratio(raw, compressed)
	if n := len(w.replay); n > 0 {
		out["lakefs.publish_ms_per_file"] = ms(self["lakefs.publish"]) / float64(n)
	}
	out["tensor.dedup_ms_per_ksample"] = perKRows(self["tensor.DedupJagged"], dedupRows)
	return nil
}

// finish ends the tail, checks that no row beyond the landed ones arrives
// and every landed row was received, and checks that the partitions still
// retained read back, through dwrf.ReadPartition, to the rows the
// benchmark generated for them.
func (w *liveTail) finish(ctx context.Context, ph *phase) {
	w.sess.EndFollow()
	for {
		b, err := w.sess.Next(ctx)
		if errors.Is(err, io.EOF) {
			ph.ops.add("next", nil)
			break
		}
		ph.ops.add("next", err)
		if err != nil {
			ph.fail(fmt.Errorf("follow session drain: %w", err))
			break
		}
		ph.fail(fmt.Errorf("follow session delivered %d rows beyond the %d landed", b.Size, w.landedRow))
	}
	if w.delivered != w.landedRow {
		ph.fail(fmt.Errorf("follow session delivered %d rows, %d were landed", w.delivered, w.landedRow))
	}
	for _, h := range w.catalog.Partitions(table) {
		got, err := dwrf.ReadPartition(w.store, w.catalog, table, h)
		if err != nil {
			ph.fail(fmt.Errorf("read back hour %d: %w", h, err))
			continue
		}
		if err := sameRows(got, w.wantByHour[h]); err != nil {
			ph.fail(fmt.Errorf("hour %d: %w", h, err))
		}
	}
}

func (w *liveTail) close() {
	if w.sess != nil {
		w.sess.Close()
	}
	if w.writer != nil {
		w.writer.Close()
	}
	w.svc.Close()
}
