package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"retri/internal/flood"
	"retri/internal/metrics"
	"retri/internal/model"
	"retri/internal/oracle"
	"retri/internal/shard"
)

// Set-up is repeated before each untraced pass at least setupReps times
// and until setupMin has been spent on it, so a workload whose set-up
// takes about a millisecond still gives a steady median; setup_s
// is the median over the run.
const (
	setupReps = 7
	setupMin  = 50 * time.Millisecond
)

// workload is one named input set. A pass runs every trial of the set
// once; the benchmark repeats identical passes for its time budget.
type workload struct {
	name string
	// workers is how many trials run at once (one when zero).
	workers int
	// trials builds one pass's trial set from the seed.
	trials func(seed uint64) []trial
	// reference, where the benchmark runs its own copy of a program trial
	// runner, returns the digests the program's runner gives for the same
	// trial set, so a drift between the two fails the run.
	reference func(seed uint64) ([]string, error)
}

var workloads = []*workload{collisionMesh, dynamicsMobile, multihopFlood, massiveShard}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// trial is one simulator trial call. traced asks run to attach the
// program's observability (which must not change the simulation) and to
// fill the outcome's per-layer fields. build constructs the trial's world
// and returns before the first simulated event.
type trial struct {
	run   func(traced bool) (outcome, error)
	build func() error
}

// setup builds a pass's inputs and every trial's world, as set-up before
// a pass would.
func (w *workload) setup(seed uint64) error {
	for _, t := range w.trials(seed) {
		if err := t.build(); err != nil {
			return err
		}
	}
	return nil
}

// outcome is what one trial reports back to the benchmark.
type outcome struct {
	// digest renders every deterministic result of the trial.
	digest string
	// failure names the correctness check the trial failed, if any.
	failure string
	// truth and reassembled count ground-truth and AFF-delivered packets
	// (receptions on the sharded core).
	truth, reassembled int64
	// eq4Bits is the identifier width of a uniform-selector collision
	// trial, whose loss rate lost/truth is scored against Equation 4;
	// zero for every other trial.
	eq4Bits int
	lost    int64
	// adaptive marks an adaptive-width arm and gap its steady-state mean
	// |achieved - Eq. 4 optimal| width in bits.
	adaptive bool
	gap      float64
	// runSeconds is the host time of the simulation proper, without world
	// construction (sharded trials only).
	runSeconds float64

	// Traced trials only.
	reg    *metrics.Registry
	oracle *oracle.Report
	relay  flood.RelayStats
	draws  int64
	shard  *shardTrace
}

// shardTrace is a sharded trial's engine accounting.
type shardTrace struct {
	counters shard.Counters
	stats    shard.RunStats
	phases   *phaseTimer
}

// pass is one timed run over a workload's trial set.
type pass struct {
	wall   time.Duration
	trials []time.Duration
	outs   []outcome
	errs   []error
}

// runPass runs every trial once, closed loop on the workload's workers:
// each worker takes the next trial in order only when its previous one
// has returned. One worker is the default: it leaves the host's second
// CPU to the garbage collector (and, on the sharded workload, to the
// trial's own second shard worker); two concurrent trials of
// collision-mesh on a 2-CPU host made pass times swing by a fifth from
// run to run.
func runPass(trials []trial, traced bool, workers int) pass {
	p := pass{
		trials: make([]time.Duration, len(trials)),
		outs:   make([]outcome, len(trials)),
		errs:   make([]error, len(trials)),
	}
	next := make(chan int, len(trials))
	for i := range trials {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < max(1, min(workers, runtime.NumCPU())); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				p.outs[i], p.errs[i] = trials[i].run(traced)
				p.trials[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// digest hashes every trial's deterministic results in trial order, so
// two passes over the same inputs must agree exactly.
func (p pass) digest() string {
	h := sha256.New()
	for _, o := range p.outs {
		io.WriteString(h, o.digest)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// countDigest hashes a traced pass's merged metrics-registry counters.
func countDigest(reg *metrics.Registry) string {
	h := sha256.New()
	for _, c := range reg.Snapshot().Counters {
		fmt.Fprintf(h, "%s{%s}=%d\n", c.Name, c.Label, c.Value)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// failures counts trials that errored or failed their check, reporting
// each on w.
func (p pass) failures(w io.Writer, label string) int {
	n := 0
	for i := range p.outs {
		switch {
		case p.errs[i] != nil:
			fmt.Fprintf(w, "perfbench: %s trial %d: %v\n", label, i, p.errs[i])
			n++
		case p.outs[i].failure != "":
			fmt.Fprintf(w, "perfbench: %s trial %d failed: %s\n", label, i, p.outs[i].failure)
			n++
		}
	}
	return n
}

// allocs sums the heap allocation of the untraced passes.
type allocs struct{ bytes, mallocs uint64 }

// accuracy is a pass's model-accuracy summary; every field is a pure
// function of the seed.
type accuracy struct {
	deliveryRatio float64
	eq4AbsErr     float64 // -1 where the workload has no uniform collision arm
	widthGapBits  float64 // -1 where the workload has no adaptive arm
}

func (p pass) accuracy() accuracy {
	var truth, reassembled int64
	type cell struct{ lost, truth int64 }
	eq4 := map[int]*cell{}
	var gapSum float64
	var adaptive int
	for _, o := range p.outs {
		truth += o.truth
		reassembled += o.reassembled
		if o.eq4Bits > 0 {
			c := eq4[o.eq4Bits]
			if c == nil {
				c = &cell{}
				eq4[o.eq4Bits] = c
			}
			c.lost += o.lost
			c.truth += o.truth
		}
		if o.adaptive {
			gapSum += o.gap
			adaptive++
		}
	}
	a := accuracy{deliveryRatio: perUnit(float64(reassembled), float64(truth)), eq4AbsErr: -1, widthGapBits: -1}
	if len(eq4) > 0 {
		widths := make([]int, 0, len(eq4))
		for bits := range eq4 {
			widths = append(widths, bits)
		}
		sort.Ints(widths) // a fixed summation order keeps the mean exact
		var sum float64
		for _, bits := range widths {
			c := eq4[bits]
			sum += math.Abs(float64(c.lost)/float64(c.truth) - model.CollisionRate(bits, collisionT))
		}
		a.eq4AbsErr = sum / float64(len(eq4))
	}
	if adaptive > 0 {
		a.widthGapBits = gapSum / float64(adaptive)
	}
	return a
}

// runWorkload measures one workload and returns the benchmark's result.
func runWorkload(w *workload, o options, log io.Writer) (result, error) {
	trials := w.trials(o.seed)

	if _, err := trials[0].run(false); err != nil {
		return result{}, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var refs []string
	if w.reference != nil {
		var err error
		if refs, err = w.reference(o.seed); err != nil {
			return result{}, fmt.Errorf("%s reference: %w", w.name, err)
		}
	}

	// Passes fill the budget. Set-up is timed before each untraced pass,
	// each repetition from a collected heap, so it is measured in the same
	// host conditions as the passes rather than in the process's first
	// milliseconds. A traced run alternates untraced and traced passes
	// over the same trials, so drift in host speed falls on both alike;
	// the CPU profile covers the traced passes only.
	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced []pass
	var profiles [][]byte
	var alloc allocs
	var setups []float64
	for start := time.Now(); len(plain) == 0 || time.Since(start) < budget; {
		var spent time.Duration
		for i := 0; i < setupReps || spent < setupMin; i++ {
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(o.seed); err != nil {
				return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			d := time.Since(t0)
			spent += d
			setups = append(setups, d.Seconds())
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plain = append(plain, runPass(trials, false, w.workers))
		runtime.ReadMemStats(&m1)
		alloc.bytes += m1.TotalAlloc - m0.TotalAlloc
		alloc.mallocs += m1.Mallocs - m0.Mallocs
		if o.trace {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, fmt.Errorf("starting CPU profile: %w", err)
			}
			traced = append(traced, runPass(trials, true, w.workers))
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	digest := plain[0].digest()
	for i, p := range append(append([]pass(nil), plain...), traced...) {
		res.Attempted += len(p.outs)
		res.Failed += p.failures(log, fmt.Sprintf("%s pass %d", w.name, i))
		if d := p.digest(); d != digest {
			fmt.Fprintf(log, "perfbench: %s pass %d digest %s differs from pass 0's %s\n", w.name, i, d, digest)
			res.Correct = false
		}
	}
	for i, ref := range refs {
		if got := plain[0].outs[i].digest; got != ref {
			fmt.Fprintf(log, "perfbench: %s trial %d gives %q, the program's runner %q\n", w.name, i, got, ref)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	acc := plain[0].accuracy()
	rep := report{workload: w.name, seed: o.seed, digest: digest}
	rep.add("trial_fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	rep.add("eq4_abs_err", acc.eq4AbsErr, "ratio")
	rep.add("width_gap_bits", acc.widthGapBits, "bits")

	if !o.trace {
		// Trial percentiles are taken within each pass and their median
		// reported, as for wall_s, so host-speed drift between passes does
		// not widen a tail pooled over the run.
		walls := make([]float64, len(plain))
		p50s := make([]float64, len(plain))
		p90s := make([]float64, len(plain))
		samples := 0
		for i, p := range plain {
			walls[i] = p.wall.Seconds()
			trialMS := make([]float64, len(p.trials))
			for j, d := range p.trials {
				trialMS[j] = float64(d) / float64(time.Millisecond)
			}
			sort.Float64s(trialMS)
			p50s[i] = quantile(trialMS, 0.50)
			p90s[i] = quantile(trialMS, 0.90)
			samples += len(trialMS)
		}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["trial_ms_p50"] = metric{median(p50s), "ms"}
		res.Metrics["trial_ms_p90"] = metric{median(p90s), "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["delivery_ratio"] = metric{acc.deliveryRatio, "ratio"}
		perPass := len(trials)
		rep.note = fmt.Sprintf("%d passes of %d trials (%d beyond each pass's p90), %d timed trials; pass walls %.3f s",
			len(plain), perPass, perPass-1-int(math.Floor(0.9*float64(perPass-1))), samples, walls)
		rep.extend(res.Metrics)
	} else {
		lm, err := layerMetrics(plain, traced, profiles, alloc)
		if err != nil {
			return result{}, err
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
		counts := countDigest(mergeRegistries(traced[0]))
		for i, p := range traced[1:] {
			if d := countDigest(mergeRegistries(p)); d != counts {
				fmt.Fprintf(log, "perfbench: %s traced pass %d counts %s differ from %s\n", w.name, i+1, d, counts)
				res.Correct = false
			}
		}
		rep.digest += " counts=" + counts
		rep.note = fmt.Sprintf("%d untraced + %d traced passes, alternating", len(plain), len(traced))
		rep.extend(res.Metrics)
		for _, k := range []string{"trial_fail_ratio", "eq4_abs_err", "width_gap_bits"} {
			res.Metrics[k] = rep.metrics[k]
		}
	}
	rep.print(log)
	return res, nil
}

// report is the human-readable account of a run, printed to standard
// error: every metric the run measured, with units, plus the sample
// counts and the determinism digest.
type report struct {
	workload, note, digest string
	seed                   uint64
	metrics                map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) extend(ms map[string]metric) {
	for k, v := range ms {
		r.add(k, v.Value, v.Unit)
	}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d digest=%s: %s\n", r.workload, r.seed, r.digest, r.note)
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		if m.Value == -1 {
			fmt.Fprintf(w, "  %-26s %14s\n", k, "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly within sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return -1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
