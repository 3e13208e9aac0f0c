package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"retri/internal/experiment"
	"retri/internal/shard"
	"retri/internal/xrand"
)

// massiveNodes is the massive-shard population: 200 tiles of 500 nodes.
const massiveNodes = 100_000

var massiveShard = &workload{
	name:      "massive-shard",
	trials:    massiveTrials,
	reference: massiveReference,
}

// massiveConfig is the massive sweep's duty-cycled machine-type world at
// one population, fixed against adaptive-turnover width.
func massiveConfig() experiment.MassiveConfig {
	cfg := experiment.DefaultMassiveConfig()
	cfg.Duration = 2 * time.Second
	cfg.Populations = []int{massiveNodes}
	cfg.Policies = []experiment.WidthPolicyKind{experiment.WidthFixed, experiment.WidthAdaptiveTurnover}
	return cfg
}

// sensorConfig maps the sweep config onto the shard model exactly as the
// massive sweep does; massiveReference checks that it still does.
func sensorConfig(cfg experiment.MassiveConfig, p experiment.WidthPolicyKind) shard.SensorConfig {
	return shard.SensorConfig{
		Nodes:        massiveNodes,
		NodesPerTile: cfg.NodesPerTile,
		Range:        cfg.Range,
		Duty:         cfg.Duty,
		SendGap:      cfg.SendGap,
		Fragments:    cfg.Fragments,
		FrameAir:     cfg.FrameAir,
		FragGap:      cfg.FragGap,
		DataBits:     8 * cfg.PacketSize,
		Adaptive:     p == experiment.WidthAdaptiveTurnover,
		FixedBits:    cfg.FixedBits,
		MinBits:      cfg.MinBits,
		MaxBits:      cfg.MaxBits,
		FrameLoss:    cfg.FrameLoss,
		ProbeEvery:   cfg.ProbeEvery,
		AuditEvery:   cfg.AuditEvery,
	}
}

func massiveSource(seed uint64, p experiment.WidthPolicyKind) *xrand.Source {
	return xrand.NewSource(seed).Child("massive").Child(fmt.Sprint(massiveNodes), string(p), "0")
}

// shardWorkers is the sharded trial's worker count: two, so barrier wait
// and stragglers show, unless the host has a single CPU.
func shardWorkers() int { return min(2, runtime.NumCPU()) }

func massiveTrials(seed uint64) []trial {
	cfg := massiveConfig()
	var ts []trial
	for _, p := range cfg.Policies {
		p, src := p, massiveSource(seed, p)
		ts = append(ts, trial{
			run: func(traced bool) (outcome, error) { return massiveTrial(cfg, p, src, traced) },
			build: func() error {
				cl, err := shard.NewCluster(sensorConfig(cfg, p), src)
				if err != nil {
					return err
				}
				shard.NewEngine(cfg.FrameAir, shardWorkers(), cl.Regions()...).Close()
				return nil
			},
		})
	}
	return ts
}

// massiveReference runs each trial through experiment.RunMassiveTrial,
// the massive sweep's own runner, for comparison with massiveTrial.
func massiveReference(seed uint64) ([]string, error) {
	cfg := massiveConfig()
	var refs []string
	for _, p := range cfg.Policies {
		c, st, _, err := experiment.RunMassiveTrial(cfg, massiveNodes, p, shardWorkers(), massiveSource(seed, p))
		if err != nil {
			return nil, err
		}
		refs = append(refs, massiveDigest(p, c, st))
	}
	return refs, nil
}

func massiveDigest(p experiment.WidthPolicyKind, c shard.Counters, st shard.RunStats) string {
	return fmt.Sprintf("%s counters=%+v windows=%d exchanged=%d", p, c, st.Windows, st.Exchanged)
}

// massiveTrial is experiment.RunMassiveTrial with the cluster's regions
// and barrier hook exposed, so a traced trial can time each phase.
func massiveTrial(cfg experiment.MassiveConfig, p experiment.WidthPolicyKind, src *xrand.Source, traced bool) (outcome, error) {
	cl, err := shard.NewCluster(sensorConfig(cfg, p), src)
	if err != nil {
		return outcome{}, err
	}
	workers := shardWorkers()
	regions := cl.Regions()
	var pt *phaseTimer
	if traced {
		pt = newPhaseTimer(regions, workers)
		regions = pt.regions()
	}
	eng := shard.NewEngine(cfg.FrameAir, workers, regions...)
	defer eng.Close()
	eng.Router = cl
	eng.OnBarrier = cl.OnBarrier
	if pt != nil {
		eng.OnBarrier = pt.onBarrier(cl.OnBarrier)
		pt.start()
	}
	t0 := time.Now()
	eng.Run(cfg.Duration)
	runSeconds := time.Since(t0).Seconds()

	c, st := cl.Counters(), eng.Stats()
	o := outcome{
		digest:      massiveDigest(p, c, st),
		truth:       c.TruthPairs,
		reassembled: c.Delivered,
		adaptive:    p == experiment.WidthAdaptiveTurnover,
		gap:         c.MeanGap(),
		runSeconds:  runSeconds,
	}
	switch {
	case c.Misdeliveries > 0:
		o.failure = fmt.Sprintf("%d audited misdeliveries", c.Misdeliveries)
	case c.FreshnessViolations > 0:
		o.failure = fmt.Sprintf("%d identifier-freshness violations", c.FreshnessViolations)
	case c.AuditedDeliveries == 0:
		o.failure = "the audit sampled no deliveries"
	}
	if traced {
		o.shard = &shardTrace{counters: c, stats: st, phases: pt}
	}
	return o, nil
}

// phaseTimer wraps a cluster's regions and barrier hook to time each
// window phase from outside the engine. The engine runs Advance on every
// region in parallel, then Emit sequentially in region order (followed by
// routing), then Absorb and Settle in parallel, then the barrier hook;
// regions are striped over workers by index modulo the worker count.
type phaseTimer struct {
	wrapped []*timedRegion
	stripe  int

	windowStart time.Time
	// Totals over the trial, in seconds: summed busy time per phase
	// (advance and absorb/settle summed over regions), the sequential
	// barrier (emit, routing and the hook), and worker time spent idle at
	// the two parallel barriers.
	advance, absorbSettle, emit, wait float64
	windows                           []float64 // per-window wall, seconds
	stragglers                        []float64 // per-window max/mean Advance
}

// timedRegion times one region's calls. Absorb (when the engine has
// records for the region) and Settle run back to back, so they are timed
// as one span.
type timedRegion struct {
	shard.Region
	// first marks region 0, whose Emit opens the sequential barrier.
	first             bool
	adv, p2           time.Duration
	emitStart, p2From time.Time
	absorbed          bool
}

func (r *timedRegion) Advance(to time.Duration) {
	t := time.Now()
	r.Region.Advance(to)
	r.adv = time.Since(t)
}

func (r *timedRegion) Emit(into []shard.Record) []shard.Record {
	if r.first {
		r.emitStart = time.Now()
	}
	return r.Region.Emit(into)
}

func (r *timedRegion) Absorb(batch []shard.Record) {
	r.p2From, r.absorbed = time.Now(), true
	r.Region.Absorb(batch)
}

func (r *timedRegion) Settle(to time.Duration) {
	if !r.absorbed {
		r.p2From = time.Now()
	}
	r.Region.Settle(to)
	r.p2 = time.Since(r.p2From)
	r.absorbed = false
}

func newPhaseTimer(regions []shard.Region, workers int) *phaseTimer {
	pt := &phaseTimer{stripe: max(1, min(workers, len(regions)))}
	for i, r := range regions {
		pt.wrapped = append(pt.wrapped, &timedRegion{Region: r, first: i == 0})
	}
	return pt
}

func (pt *phaseTimer) regions() []shard.Region {
	rs := make([]shard.Region, len(pt.wrapped))
	for i, r := range pt.wrapped {
		rs[i] = r
	}
	return rs
}

func (pt *phaseTimer) start() { pt.windowStart = time.Now() }

// onBarrier closes one window's accounting around the cluster's own hook.
// It runs sequentially after both parallel phases have returned.
func (pt *phaseTimer) onBarrier(hook func(time.Duration)) func(time.Duration) {
	busy := make([]time.Duration, pt.stripe)
	return func(now time.Duration) {
		entry := time.Now()
		emitStart := pt.wrapped[0].emitStart
		p2Start := pt.wrapped[0].p2From
		var maxAdv, sumAdv time.Duration
		for _, r := range pt.wrapped {
			if r.p2From.Before(p2Start) {
				p2Start = r.p2From
			}
			maxAdv = max(maxAdv, r.adv)
			sumAdv += r.adv
		}
		pt.wait += idle(emitStart.Sub(pt.windowStart), busy, pt.wrapped, func(r *timedRegion) time.Duration { return r.adv })
		pt.wait += idle(entry.Sub(p2Start), busy, pt.wrapped, func(r *timedRegion) time.Duration { return r.p2 })
		for _, r := range pt.wrapped {
			pt.absorbSettle += r.p2.Seconds()
		}
		pt.advance += sumAdv.Seconds()
		if sumAdv > 0 {
			pt.stragglers = append(pt.stragglers, float64(maxAdv)*float64(len(pt.wrapped))/float64(sumAdv))
		}
		hook(now)
		exit := time.Now()
		pt.emit += p2Start.Sub(emitStart).Seconds() + exit.Sub(entry).Seconds()
		pt.windows = append(pt.windows, exit.Sub(pt.windowStart).Seconds())
		pt.windowStart = exit
	}
}

// idle is the worker time a parallel phase of the given wall time left
// unused: per stripe, the wall minus the busy time of its regions.
func idle(wall time.Duration, busy []time.Duration, rs []*timedRegion, part func(*timedRegion) time.Duration) float64 {
	for i := range busy {
		busy[i] = 0
	}
	for i, r := range rs {
		busy[i%len(busy)] += part(r)
	}
	var sum float64
	for _, b := range busy {
		sum += math.Max(0, (wall - b).Seconds())
	}
	return sum
}

// shardLayer sets the shard.* metrics from a traced pass's sharded
// trials. events_per_s uses untraced run time, since the wrappers slow
// the traced trials.
func shardLayer(set func(name string, v float64, unit string), traced []outcome, untracedRunSeconds float64) {
	var windowCount, exchanged, events, advance, emit, absorbSettle, wait float64
	var windows, stragglers []float64
	for _, o := range traced {
		s := o.shard
		if s == nil {
			continue
		}
		windowCount += float64(s.stats.Windows)
		exchanged += float64(s.stats.Exchanged)
		events += float64(s.counters.Events + s.counters.Verdicts)
		advance += s.phases.advance
		emit += s.phases.emit
		absorbSettle += s.phases.absorbSettle
		wait += s.phases.wait
		windows = append(windows, s.phases.windows...)
		stragglers = append(stragglers, s.phases.stragglers...)
	}
	sort.Float64s(windows)
	set("shard.windows", windowCount, "count")
	set("shard.exchanged", exchanged, "count")
	set("shard.events", events, "count")
	set("shard.events_per_s", perUnit(events, untracedRunSeconds), "1/s")
	set("shard.advance_s", advance, "s")
	set("shard.emit_s", emit, "s")
	set("shard.absorb_settle_s", absorbSettle, "s")
	set("shard.barrier_wait_s", wait, "s")
	set("shard.straggler_ratio", median(stragglers), "ratio")
	set("shard.window_us_p50", scaled(quantile(windows, 0.50), 1e6), "us")
	set("shard.window_us_p99", scaled(quantile(windows, 0.99), 1e6), "us")
}

// scaled converts a measured value, keeping -1 for "not measured".
func scaled(v, by float64) float64 {
	if v < 0 {
		return -1
	}
	return v * by
}
