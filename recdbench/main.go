// Command recdbench is the end-to-end benchmark of the RecD ingestion
// stack: it generates inputs from a seed, drives the program only through
// its public packages (datagen, etl, dwrf, lakefs, dpp, dppnet, dppshard,
// landing, trainer), checks every delivered batch against a reference it
// computes itself, and prints trainer-visible metrics. With --trace 1 it
// prints per-layer metrics from spans around each call into a layer
// instead. README.md describes the workloads, metrics and inputs.
//
//	go run . --workload local-cold --seed 1 --seconds 10 --trace 0
//	go run . --repeat 10 --seconds 10
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// workload is one set of inputs and the loop that drives the program
// over them.
type workload interface {
	// run drives one timed phase until deadline, finishing the round
	// (epoch, or landed file) in progress. tr is nil on untraced phases.
	run(ctx context.Context, deadline time.Time, tr *tracer, ph *phase)
	// storedPerSample is the DWRF bytes written to lakefs per landed row.
	storedPerSample() float64
	// layers fills the per-layer metrics of the traced phase ph, replaying
	// the layers a session hides through their public calls under tr.
	layers(ctx context.Context, tr *tracer, ph *phase, out map[string]float64) error
	// finish ends any open stream and runs the end-of-run checks.
	finish(ctx context.Context, ph *phase)
	close()
}

type workloadDef struct {
	name  string
	setup func(seed int64) (workload, error)
}

var workloads = []workloadDef{
	{"local-cold", setupLocalCold},
	{"remote-warm", setupRemoteWarm},
	{"fleet-train", setupFleetTrain},
	{"live-tail", setupLiveTail},
}

// setupRepeats is how many times a run builds its inputs and services;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 5

// rounds is how many rounds a timed phase is measured in; end-to-end
// metrics are the best round or the median over rounds.
const rounds = 20

// maxProcs caps GOMAXPROCS so the load a run offers does not depend on
// the size of the machine beyond the two CPUs the figures were taken on.
const maxProcs = 2

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: local-cold, remote-warm, fleet-train or live-tail (repeat mode: empty runs all)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured run")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times (seeds 1..N) as child processes and print per-metric quartiles")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "recdbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatMode(*name, *repeat, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "recdbench:", err)
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(workloads, func(d workloadDef) bool { return d.name == *name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "recdbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOnce(workloads[i], *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runOnce(def workloadDef, seed int64, seconds int, traced bool) (*runResult, error) {
	fmt.Printf("workload %s seed %d seconds %d trace %v GOMAXPROCS %d\n", def.name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = def.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	_, setupMedian, _ := quartiles(setups)
	ctx := context.Background()

	runPhase := func(d time.Duration, tr *tracer) *phase {
		ph := newPhase()
		ph.win = openWindow(d / rounds)
		w.run(ctx, time.Now().Add(d), tr, ph)
		ph.cost = ph.win.close(ph)
		return ph
	}
	metrics := map[string]float64{}
	var defs []metricDef
	var last *phase
	ops := newOps()
	if !traced {
		ph := runPhase(time.Duration(seconds)*time.Second, nil)
		ops.merge(ph.ops)
		ph.endToEndMetrics(metrics, w.storedPerSample())
		metrics["setup_s"] = setupMedian
		defs, last = endToEnd, ph
		printRounds(ph)
	} else {
		// The first half runs untraced and the second traced, so the
		// run measures its own tracing overhead.
		half := time.Duration(seconds) * time.Second / 2
		base := runPhase(half, nil)
		tr := newTracer(fmt.Sprintf("%s-seed%d", def.name, seed))
		ph := runPhase(half, tr)
		ops.merge(base.ops)
		ops.merge(ph.ops)
		base.fail(ph.problem)
		ph.problem = base.problem
		if err := w.layers(ctx, tr, ph, metrics); err != nil {
			ph.fail(fmt.Errorf("layer replay: %w", err))
		}
		metrics["batch_wait_p99_ms"] = ms(percentile(base.waits, 0.99)) // untraced: spans would add to it
		metrics["runtime.gc_cycles_per_ksample"] = ph.perSample(float64(ph.cost.gcCycles)) * 1000
		metrics["bench.trace_overhead_samples_pct"] = 100 * (base.samplesPerSec() - ph.samplesPerSec()) / base.samplesPerSec()
		metrics["bench.trace_overhead_cpu_pct"] = 100 * (ph.cpuPerKSample() - base.cpuPerKSample()) / base.cpuPerKSample()
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", def.name, seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace %d spans written to %s\n", len(tr.spans), path)
		defs, last = perLayer, ph
	}
	last.ops = newOps() // phase ops are merged above; count only finish's
	w.finish(ctx, last)
	ops.merge(last.ops)

	res := &runResult{Metrics: map[string]metricValue{}}
	for _, k := range ops.kinds() {
		fmt.Printf("ops %s attempted %d failed %d\n", k, ops.attempted[k], ops.failed[k])
	}
	res.Attempted, res.Failed = ops.totals()
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			last.fail(fmt.Errorf("metric %s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %s %s %s\n", d.name, fmtValue(v), d.unit)
	}
	res.Correct = last.problem == nil
	if last.problem != nil {
		fmt.Printf("check FAILED: %v\n", last.problem)
	} else {
		fmt.Println("check passed: every delivered batch matched the reference")
	}
	return res, nil
}

// repeatMode runs each workload n times with seeds 1..n, one child process
// at a time, and prints per metric the median, the quartiles and the
// interquartile spread as a share of the median.
func repeatMode(only string, n, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, def := range workloads {
		if only != "" && def.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var failShares []float64
		for s := 1; s <= n; s++ {
			cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.Itoa(s),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, s, err)
			}
			var res runResult
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", def.name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs failed the check", def.name, s)
			}
			failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		fmt.Printf("repeat %s runs=%d seconds=%d failed_share=%v\n", def.name, n, seconds, failShares)
		fmt.Printf("%-36s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, d := range defs {
			q1, med, q3 := quartiles(values[d.name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			fmt.Printf("%-36s %12s %12s %12s %8.4f %s\n", d.name, fmtValue(q1), fmtValue(med), fmtValue(q3), spread, units[d.name])
		}
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// printRounds prints each round of a phase and the whole phase, so a
// reader can see what the medians were taken over and how much of the
// machine the hypervisor took meanwhile.
func printRounds(ph *phase) {
	for i, r := range ph.win.rounds {
		fmt.Printf("round %d elapsed_s=%.3f samples=%d samples_per_s=%s cpu_ms_per_ksample=%s wait_p50_ms=%s wait_p99_ms=%s waits=%d heap_peak=%d steal_pct=%.1f\n",
			i, r.elapsed.Seconds(), r.samples, fmtValue(roundRate(r)), fmtValue(roundCPU(r)),
			fmtValue(ms(percentile(r.waits, 0.5))), fmtValue(ms(percentile(r.waits, 0.99))), len(r.waits), r.heapPeak, 100*r.steal)
	}
	fmt.Printf("phase elapsed_s=%.3f samples=%d batches=%d wait_p50_ms=%s wait_p99_ms=%s heap_peak=%d gc_cycles=%d\n",
		ph.cost.elapsed.Seconds(), ph.samples, len(ph.waits), fmtValue(ms(percentile(ph.waits, 0.5))),
		fmtValue(ms(percentile(ph.waits, 0.99))), ph.cost.heapPeak, ph.cost.gcCycles)
}
