package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dpp"
	"repro/internal/reader"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a trainer sees; every workload reports all of
// them on untraced runs.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s"},
	{"batch_wait_p50_ms", "ms"},
	{"cpu_ms_per_ksample", "ms"},
	{"alloc_bytes_per_sample", "B"},
	{"heap_peak_bytes", "B"},
	{"stored_bytes_per_sample", "B"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named by module. A layer that
// does no work on a workload reports 0 there; README.md lists which
// workload each one is meant to be read on.
var perLayer = []metricDef{
	{"batch_wait_p99_ms", "ms"},
	{"wire_bytes_per_sample", "B"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"lakefs.get_ms_per_ksample", "ms"},
	{"lakefs.publish_ms_per_file", "ms"},
	{"storage.raw_hit_ratio", "ratio"},
	{"dwrf.decode_ms_per_ksample", "ms"},
	{"dwrf.encode_ms_per_ksample", "ms"},
	{"dwrf.compression_ratio", "ratio"},
	{"reader.fill_ms_per_ksample", "ms"},
	{"reader.convert_ms_per_ksample", "ms"},
	{"reader.process_ms_per_ksample", "ms"},
	{"reader.fetch_model_ms_per_ksample", "ms"},
	{"reader.read_bytes_per_sample", "B"},
	{"reader.rows_decoded_per_sample", "ratio"},
	{"tensor.dedup_ms_per_ksample", "ms"},
	{"tensor.dedup_factor", "ratio"},
	{"tensor.expand_ms_per_ksample", "ms"},
	{"dpp.worker_stall_ms_per_ksample", "ms"},
	{"dpp.consumer_stall_ms_per_ksample", "ms"},
	{"dpp.scancache_hit_ratio", "ratio"},
	{"dpp.scancache_get_us_per_file", "us"},
	{"dpp.follow_lag_files_p99", "files"},
	{"dppnet.encode_ms_per_ksample", "ms"},
	{"dppnet.decode_ms_per_ksample", "ms"},
	{"dppnet.credit_wait_ms_per_ksample", "ms"},
	{"dppnet.payload_bytes_per_sample", "B"},
	{"dppnet.reconnects", "count"},
	{"dppshard.shard_skew", "ratio"},
	{"dppshard.reroutes", "count"},
	{"trainer.forward_ms_per_ksample", "ms"},
	{"trainer.backward_ms_per_ksample", "ms"},
	{"trainer.step_ms_per_ksample", "ms"},
	{"trainer.unique_row_ratio", "ratio"},
	{"etl.cluster_ms_per_ksample", "ms"},
	{"landing.append_ms_per_ksample", "ms"},
	{"runtime.gc_cycles_per_ksample", "count"},
	{"bench.generator_late_ms_p99", "ms"},
	{"bench.trace_overhead_samples_pct", "%"},
	{"bench.trace_overhead_cpu_pct", "%"},
}

// opsLedger counts the operations a run attempted and how many failed,
// per kind (Next calls, train steps, files landed, retention drops).
type opsLedger struct {
	attempted map[string]int64
	failed    map[string]int64
}

func newOps() *opsLedger {
	return &opsLedger{attempted: map[string]int64{}, failed: map[string]int64{}}
}

func (o *opsLedger) add(kind string, err error) {
	o.attempted[kind]++
	if err != nil {
		o.failed[kind]++
	}
}

func (o *opsLedger) merge(p *opsLedger) {
	for k, v := range p.attempted {
		o.attempted[k] += v
	}
	for k, v := range p.failed {
		o.failed[k] += v
	}
}

func (o *opsLedger) totals() (attempted, failed int64) {
	for _, v := range o.attempted {
		attempted += v
	}
	for _, v := range o.failed {
		failed += v
	}
	return attempted, failed
}

func (o *opsLedger) kinds() []string {
	var ks []string
	for k := range o.attempted {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// phase is what one timed phase of a workload observed.
type phase struct {
	samples int64
	waits   []time.Duration // time blocked in Next, one per batch
	ops     *opsLedger
	problem error   // first output that failed a check
	win     *window // nil outside timed phases
	cost    phaseCost
}

// mark ends a unit of work (an epoch, or a landed file); the window may
// close a round here.
func (p *phase) mark() {
	if p.win != nil {
		p.win.mark(p)
	}
}

func newPhase() *phase { return &phase{ops: newOps()} }

// fail records the first check failure; later ones add nothing.
func (p *phase) fail(err error) {
	if err != nil && p.problem == nil {
		p.problem = err
	}
}

// perKSample converts a phase total to a per-1000-samples figure.
func (p *phase) perKSample(d time.Duration) float64 {
	if p.samples == 0 {
		return 0
	}
	return ms(d) * 1000 / float64(p.samples)
}

func (p *phase) perSample(x float64) float64 {
	if p.samples == 0 {
		return 0
	}
	return x / float64(p.samples)
}

func roundRate(r round) float64 { return float64(r.samples) / r.elapsed.Seconds() }

func roundCPU(r round) float64 { return ms(r.cpu) * 1000 / float64(max(1, r.samples)) }

// samplesPerSec and cpuPerKSample are taken over the phase's best quarter
// of rounds: outside load (another tenant's CPU, hypervisor steal) only
// ever slows a round, so the best rounds are the closest reading of the
// program's own speed.
func (p *phase) samplesPerSec() float64 { return bestOver(p.win.rounds, roundRate, true) }

func (p *phase) cpuPerKSample() float64 { return bestOver(p.win.rounds, roundCPU, false) }

// endToEndMetrics fills every end-to-end metric but setup_s. Throughput,
// median wait and CPU are the mean over the best quarter of rounds;
// allocation and heap
// peak, which outside load does not move, are medians over rounds. The
// p99 wait is taken over every batch of the phase (a round holds too few
// for ten waits beyond it) and is reported with the per-layer metrics: on
// a shared two-CPU machine its spread across runs is wider than any bound
// a regression gate could hold.
func (p *phase) endToEndMetrics(out map[string]float64, storedPerSample float64) {
	rs := p.win.rounds
	out["samples_per_s"] = p.samplesPerSec()
	out["batch_wait_p50_ms"] = bestOver(rs, func(r round) float64 { return ms(percentile(r.waits, 0.50)) }, false)
	out["batch_wait_p99_ms"] = ms(percentile(p.waits, 0.99))
	out["cpu_ms_per_ksample"] = p.cpuPerKSample()
	out["alloc_bytes_per_sample"] = medianOver(rs, func(r round) float64 { return float64(r.alloc) / float64(max(1, r.samples)) })
	out["heap_peak_bytes"] = medianOver(rs, func(r round) float64 { return float64(r.heapPeak) })
	out["stored_bytes_per_sample"] = storedPerSample
}

func perKRows(d time.Duration, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return ms(d) * 1000 / float64(rows)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readerLayers reports the session's own fill/convert/process split.
func readerLayers(st reader.Stats, ph *phase, out map[string]float64) {
	out["reader.fill_ms_per_ksample"] = ph.perKSample(st.FillTime)
	out["reader.convert_ms_per_ksample"] = ph.perKSample(st.ConvertTime)
	out["reader.process_ms_per_ksample"] = ph.perKSample(st.ProcessTime)
	out["reader.read_bytes_per_sample"] = ph.perSample(float64(st.ReadBytes))
	out["reader.rows_decoded_per_sample"] = ph.perSample(float64(st.RowsDecoded))
}

func schedLayers(st dpp.ServiceSchedulerStats, ph *phase, out map[string]float64) {
	out["dpp.worker_stall_ms_per_ksample"] = ph.perKSample(st.WorkerStall)
	out["dpp.consumer_stall_ms_per_ksample"] = ph.perKSample(st.ConsumerStall)
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }
