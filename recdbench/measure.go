package main

import (
	"cmp"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processCPU is the user+system CPU the benchmark process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads the machine's stolen and total CPU ticks from
// /proc/stat, or zeros where it is not available. Steal is time a virtual
// CPU was runnable but the hypervisor ran someone else: it slows wall-clock
// metrics without showing in the process's own CPU time.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// window measures one timed phase, whole and in rounds: wall time,
// process CPU, allocation, GC cycles and the peak HeapInuse sampled while
// it runs. A round closes at the first mark (the end of an epoch or a
// landed file) after roundLen has passed, so every round is whole units
// of work. End-to-end metrics are medians over rounds, which keeps a
// burst of outside load in one round from moving them.
type window struct {
	roundLen time.Duration
	start    snapshot
	last     snapshot
	rounds   []round

	stop      chan struct{}
	wg        sync.WaitGroup
	peak      atomic.Uint64 // this round's peak HeapInuse
	phasePeak atomic.Uint64 // the phase's peak HeapInuse
}

type snapshot struct {
	at           time.Time
	cpu          time.Duration
	alloc        uint64
	gc           uint32
	samples      int64
	waits        int
	steal, ticks uint64 // machine-wide CPU ticks stolen by the hypervisor, and all ticks
}

// round is what one round of a phase measured.
type round struct {
	elapsed  time.Duration
	cpu      time.Duration
	alloc    uint64
	samples  int64
	waits    []time.Duration
	heapPeak uint64
	steal    float64 // share of machine CPU time stolen by the hypervisor
}

// heapSampleEvery is the HeapInuse sampling period: fine enough to see
// the GC sawtooth of a phase that lasts seconds, coarse enough that the
// stop-the-world ReadMemStats stays out of the measured costs.
const heapSampleEvery = 10 * time.Millisecond

func openWindow(roundLen time.Duration) *window {
	runtime.GC() // every phase starts from the same collected heap
	w := &window{roundLen: roundLen, stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				raise(&w.peak, ms.HeapInuse)
				raise(&w.phasePeak, ms.HeapInuse)
			}
		}
	}()
	w.start = takeSnapshot(nil)
	w.last = w.start
	return w
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func takeSnapshot(ph *phase) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gc: ms.NumGC}
	s.steal, s.ticks = cpuSteal()
	if ph != nil {
		s.samples, s.waits = ph.samples, len(ph.waits)
	}
	return s
}

// mark ends the current round if it has lasted roundLen.
func (w *window) mark(ph *phase) {
	if time.Since(w.last.at) >= w.roundLen {
		w.endRound(ph)
	}
}

func (w *window) endRound(ph *phase) {
	now := takeSnapshot(ph)
	w.rounds = append(w.rounds, round{
		elapsed:  now.at.Sub(w.last.at),
		cpu:      now.cpu - w.last.cpu,
		alloc:    now.alloc - w.last.alloc,
		samples:  now.samples - w.last.samples,
		waits:    ph.waits[w.last.waits:now.waits],
		heapPeak: w.peak.Swap(0),
		steal:    float64(now.steal-w.last.steal) / float64(max(1, now.ticks-w.last.ticks)),
	})
	w.last = now
}

// phaseCost is what a closed window measured over the whole phase.
type phaseCost struct {
	elapsed  time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	heapPeak uint64
}

// close ends the phase. The last, partial round counts only if it is at
// least half a round long, or if it is the only one.
func (w *window) close(ph *phase) phaseCost {
	if time.Since(w.last.at) >= w.roundLen/2 || len(w.rounds) == 0 {
		w.endRound(ph)
	}
	close(w.stop)
	w.wg.Wait()
	end := takeSnapshot(ph)
	return phaseCost{
		elapsed:  end.at.Sub(w.start.at),
		cpu:      end.cpu - w.start.cpu,
		alloc:    end.alloc - w.start.alloc,
		gcCycles: end.gc - w.start.gc,
		heapPeak: w.phasePeak.Load(),
	}
}

// bestOver is the mean of f over the best quarter of rounds: the highest
// values when highest is set, else the lowest. Averaging a quarter keeps
// one lucky round from setting the figure.
func bestOver(rounds []round, f func(round) float64, highest bool) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	slices.Sort(xs)
	if highest {
		slices.Reverse(xs)
	}
	k := (len(xs) + 3) / 4
	sum := 0.0
	for _, x := range xs[:k] {
		sum += x
	}
	return sum / float64(k)
}

// medianOver is the median over rounds of f.
func medianOver(rounds []round, f func(round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	_, med, _ := quartiles(xs)
	return med
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles matches Python's statistics.quantiles(xs, n=4) with the
// default "exclusive" method, so repeat-mode spreads equal the ones an
// outside script computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
