package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/reader"
)

// remote-warm: two dppnet clients, one connection each, pull the same
// aligned ShareScans spec from one in-process server for epoch after
// epoch. The table fits the ScanCache, which setup warms, so decode is
// almost absent and wire encode, credit flow, client decode and cache
// lookup are the work.
const (
	remoteRows        = 8192
	remoteMeanS       = 16.5
	remoteRowsPerFile = 256
	remoteBatch       = 128
	remoteClients     = 2
)

// countingListener counts every byte read or written on accepted
// connections: the bytes crossing the wire in both directions.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// server is one in-process dppnet server on a loopback counting listener.
type server struct {
	svc  *dpp.Service
	srv  *dppnet.Server
	addr string
	wire atomic.Int64
	done sync.WaitGroup
}

func startServer(cfg dpp.Config) (*server, error) {
	svc, err := dpp.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, srv: dppnet.NewServer(svc), addr: ln.Addr().String()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		s.srv.Serve(countingListener{Listener: ln, n: &s.wire})
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	s.done.Wait()
	s.svc.Close()
}

// netDelta is one server's transport counters over a phase.
type netDelta struct {
	wire, payload int64
	creditStall   time.Duration
	cacheHits     int64
	cacheMisses   int64
	sched         dpp.ServiceSchedulerStats
}

type netSnap struct {
	wire int64
	st   dppnet.ServerStats
	svc  dpp.Stats
}

func (s *server) snap() netSnap {
	return netSnap{wire: s.wire.Load(), st: s.srv.Stats(), svc: s.svc.Stats()}
}

func (d *netDelta) add(a, b netSnap) {
	d.wire += b.wire - a.wire
	d.payload += b.st.BytesSent - a.st.BytesSent
	d.creditStall += b.st.CreditStallTime - a.st.CreditStallTime
	d.cacheHits += b.svc.Cache.Hits - a.svc.Cache.Hits
	d.cacheMisses += b.svc.Cache.Misses - a.svc.Cache.Misses
	d.sched.WorkerStall += b.svc.Scheduler.WorkerStall - a.svc.Scheduler.WorkerStall
	d.sched.ConsumerStall += b.svc.Scheduler.ConsumerStall - a.svc.Scheduler.ConsumerStall
}

func (d netDelta) report(ph *phase, out map[string]float64) {
	out["wire_bytes_per_sample"] = ph.perSample(float64(d.wire))
	out["dppnet.payload_bytes_per_sample"] = ph.perSample(float64(d.payload))
	out["dppnet.credit_wait_ms_per_ksample"] = ph.perKSample(d.creditStall)
	out["dpp.scancache_hit_ratio"] = ratio(d.cacheHits, d.cacheHits+d.cacheMisses)
	schedLayers(d.sched, ph, out)
}

type remoteWarm struct {
	spec   dpp.Spec
	tbl    *landed
	srv    *server
	checks [remoteClients]*stream

	net        netDelta
	reader     reader.Stats
	reconnects int64
	batches    []*reader.Batch // one epoch's client-decoded batches, for replay
}

func setupRemoteWarm(seed int64) (workload, error) {
	schema := benchSchema()
	tbl, err := landTable(schema, generate(schema, remoteRows, remoteMeanS, seed), remoteRowsPerFile)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(dpp.Config{Backend: tbl.store, Catalog: tbl.catalog})
	if err != nil {
		return nil, err
	}
	w := &remoteWarm{tbl: tbl, srv: srv,
		spec: dpp.Spec{Spec: benchSpec(remoteBatch), ShareScans: true}}
	for i := range w.checks {
		chk, err := newChecker(schema, w.spec.Spec)
		if err != nil {
			srv.close()
			return nil, err
		}
		w.checks[i] = newStream(chk, tbl.rows, remoteBatch)
	}
	// Warm the ScanCache with one checked epoch over one connection.
	warm := newPhase()
	w.epoch(context.Background(), dppnet.NewClient(srv.addr), w.checks[0], nil, -1, warm)
	if warm.problem != nil {
		srv.close()
		return nil, fmt.Errorf("warm-up epoch: %w", warm.problem)
	}
	return w, nil
}

func (w *remoteWarm) storedPerSample() float64 {
	return float64(w.tbl.storedBytes()) / float64(len(w.tbl.rows))
}

// epoch opens one remote session and drains it, checking every batch.
func (w *remoteWarm) epoch(ctx context.Context, c *dppnet.Client, chk *stream, tr *tracer, parent int32, ph *phase) (reader.Stats, int64, []*reader.Batch) {
	rs, err := c.Open(ctx, w.spec)
	ph.ops.add("open", err)
	if err != nil {
		return reader.Stats{}, 0, nil
	}
	defer rs.Close()
	chk.reset()
	var kept []*reader.Batch
	for {
		t0 := time.Now()
		sp := tr.begin("dppnet.RemoteSession.Next", parent)
		b, err := rs.Next(ctx)
		tr.end(sp)
		wait := time.Since(t0)
		if errors.Is(err, io.EOF) {
			ph.ops.add("next", nil)
			ph.fail(chk.done())
			break
		}
		ph.ops.add("next", err)
		if err != nil {
			return reader.Stats{}, rs.Reconnects(), kept
		}
		ph.waits = append(ph.waits, wait)
		ph.samples += int64(b.Size)
		sp = tr.begin("bench.check", parent)
		ph.fail(checkBatch(chk, b))
		tr.end(sp)
		kept = append(kept, b)
	}
	st, ok := rs.Stats()
	if !ok {
		ph.fail(errors.New("remote session ended without its stats frame"))
	}
	return st.Reader, rs.Reconnects(), kept
}

func (w *remoteWarm) run(ctx context.Context, deadline time.Time, tr *tracer, ph *phase) {
	w.net, w.reader, w.reconnects = netDelta{}, reader.Stats{}, 0
	s0 := w.srv.snap()
	clients := [remoteClients]*dppnet.Client{}
	for i := range clients {
		clients[i] = dppnet.NewClient(w.srv.addr)
	}
	for time.Now().Before(deadline) {
		ep := tr.begin("bench.epoch", -1)
		var wg sync.WaitGroup
		parts := [remoteClients]*phase{}
		stats := [remoteClients]reader.Stats{}
		recon := [remoteClients]int64{}
		kept := [remoteClients][]*reader.Batch{}
		for i := range clients {
			parts[i] = newPhase()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stats[i], recon[i], kept[i] = w.epoch(ctx, clients[i], w.checks[i], tr, ep, parts[i])
			}(i)
		}
		wg.Wait()
		tr.end(ep)
		for i, p := range parts {
			ph.samples += p.samples
			ph.waits = append(ph.waits, p.waits...)
			ph.ops.merge(p.ops)
			ph.fail(p.problem)
			w.reader.Add(stats[i])
			w.reconnects += recon[i]
		}
		if tr != nil && w.batches == nil {
			w.batches = kept[0]
		}
		ph.mark()
	}
	w.net.add(s0, w.srv.snap())
}

func (w *remoteWarm) layers(ctx context.Context, tr *tracer, ph *phase, out map[string]float64) error {
	w.net.report(ph, out)
	readerLayers(w.reader, ph, out)
	out["dppnet.reconnects"] = float64(w.reconnects)
	var rows, uniq int64
	for _, c := range w.checks {
		rows += c.rowsSeen
		uniq += c.uniqSeen
	}
	out["tensor.dedup_factor"] = ratio(rows, uniq)

	// Cache lookup, replayed: every file of the warmed table under the
	// sessions' spec fingerprint. A miss would mean the warm-up did not
	// hold, so the compute refuses instead of decoding.
	cache := w.srv.svc.ScanCache()
	fp := w.spec.Spec.Fingerprint()
	root := tr.begin("bench.replay.cache", -1)
	for _, f := range w.tbl.files {
		sp := tr.begin("dpp.ScanCache.Get", root)
		_, hit, err := cache.Get(ctx, f, fp, func(context.Context) (*reader.FileScan, error) {
			return nil, fmt.Errorf("file %s is not in the warmed ScanCache", f)
		})
		tr.end(sp)
		if err != nil || !hit {
			tr.end(root)
			return fmt.Errorf("scan cache replay: hit=%v err=%v", hit, err)
		}
	}
	tr.end(root)

	// Wire encode and client decode, replayed on one epoch's batches.
	root = tr.begin("bench.replay.wire", -1)
	rowsReplayed := 0
	var buf bytes.Buffer
	for _, b := range w.batches {
		buf.Reset()
		sp := tr.begin("reader.Batch.Encode", root)
		err := b.Encode(&buf)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("reader.DecodeBatch", root)
		_, err = reader.DecodeBatch(bytes.NewReader(buf.Bytes()))
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		rowsReplayed += b.Size
	}
	tr.end(root)
	self := tr.selfTimes()
	out["dpp.scancache_get_us_per_file"] = float64(self["dpp.ScanCache.Get"]) / float64(time.Microsecond) / float64(max(1, len(w.tbl.files)))
	out["dppnet.encode_ms_per_ksample"] = perKRows(self["reader.Batch.Encode"], rowsReplayed)
	out["dppnet.decode_ms_per_ksample"] = perKRows(self["reader.DecodeBatch"], rowsReplayed)
	return nil
}

func (w *remoteWarm) finish(context.Context, *phase) {}

func (w *remoteWarm) close() { w.srv.close() }
