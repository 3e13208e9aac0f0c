package main

import (
	"retri/internal/flood"
	"retri/internal/metrics"
	"retri/internal/oracle"
)

// cpuLayers are the internal packages whose CPU share the traced run
// reports as <pkg>.cpu_share.
var cpuLayers = []string{
	"sim", "radio", "core", "aff", "frame", "bitio", "density", "adapt", "model",
	"oracle", "flood", "shard", "node", "mobility", "experiment",
}

// A per-layer value of -1 means the program does not expose that figure
// on this workload (or its denominator is zero); 0 means the layer was
// measured and did none of that work.

// layerMetrics derives every per-layer metric from one traced pass, the
// traced passes' CPU profiles and the untraced passes they repeat.
func layerMetrics(plain, traced []pass, profiles [][]byte, alloc allocs) (map[string]metric, error) {
	layers := map[string]int64{}
	var total int64
	for _, prof := range profiles {
		l, t, err := foldProfile(prof)
		if err != nil {
			return nil, err
		}
		for k, v := range l {
			layers[k] += v
		}
		total += t
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	share := func(layer string) float64 {
		if total == 0 {
			return -1
		}
		return float64(layers[layer]) / float64(total)
	}
	for _, l := range cpuLayers {
		set(l+".cpu_share", share(l), "ratio")
	}
	set("runtime.gc_cpu_share", share("runtime.gc"), "ratio")
	set("bench.cpu_share", share("bench"), "ratio")
	set("other.cpu_share", share("other"), "ratio")

	passes := float64(len(plain))
	set("runtime.alloc_mb", float64(alloc.bytes)/passes/(1<<20), "MB")
	set("runtime.mallocs", float64(alloc.mallocs)/passes, "count")
	walls := func(ps []pass) []float64 {
		var w []float64
		for _, p := range ps {
			w = append(w, p.wall.Seconds())
		}
		return w
	}
	untracedWall := median(walls(plain))
	set("bench.trace_overhead", median(walls(traced))/untracedWall, "ratio")

	tp := traced[0]
	snap := mergeRegistries(tp).Snapshot()
	exposed := func(name string) bool {
		for _, c := range snap.Counters {
			if c.Name == name {
				return true
			}
		}
		return false
	}
	hasSim := exposed("sim_events_processed_total")
	count := func(name, label string) float64 {
		var sum int64
		for _, c := range snap.Counters {
			if c.Name == name && (label == "" || c.Label == label) {
				sum += c.Value
			}
		}
		return float64(sum)
	}
	// counted reports a counter the full stack exposes on some workloads
	// only: -1 where its trials ran the full stack without exposing it.
	counted := func(name, label string) float64 {
		if hasSim && !exposed(name) {
			return -1
		}
		return count(name, label)
	}

	events := count("sim_events_processed_total", "")
	set("sim.events", events, "count")
	set("sim.scheduled", count("sim_events_scheduled_total", ""), "count")
	set("sim.cancelled", count("sim_timers_cancelled_total", ""), "count")
	var hw float64
	for _, g := range snap.Gauges {
		if g.Name == "sim_heap_high_water" {
			hw = max(hw, g.Value)
		}
	}
	set("sim.heap_high_water", hw, "count")
	set("sim.ns_per_event", perUnit(untracedWall*1e9, events), "ns")

	kind := func(k string) float64 { return count("radio_events_total", "kind="+k) }
	delivered := kind("delivered")
	set("radio.frames_sent", kind("sent"), "count")
	set("radio.deliveries", delivered, "count")
	set("radio.collided", kind("collided"), "count")
	set("radio.half_duplex", kind("half-duplex"), "count")
	set("radio.delivery_ratio", perUnit(delivered,
		delivered+kind("collided")+kind("half-duplex")+kind("random-loss")+kind("not-heard")), "ratio")

	var draws int64
	var orc oracle.Report
	var relay flood.RelayStats
	var runSeconds float64
	for _, o := range tp.outs {
		draws += o.draws
		if o.oracle != nil {
			orc.Merge(*o.oracle)
		}
		relay.Merge(o.relay)
	}
	for _, o := range plain[0].outs {
		runSeconds += o.runSeconds
	}
	set("core.draws", float64(draws), "count")
	set("core.ns_per_draw", perUnit(float64(layers["core"])/float64(len(traced)), float64(draws)), "ns")

	affDelivered := counted("aff_delivered_total", "")
	set("aff.fragments_in", counted("aff_fragments_in_total", ""), "count")
	set("aff.delivered", affDelivered, "count")
	set("aff.conflicts", counted("aff_conflicts_total", ""), "count")
	set("aff.timeouts", counted("aff_timeouts_total", ""), "count")
	attempts := affDelivered + counted("aff_conflicts_total", "") + counted("aff_timeouts_total", "") +
		counted("aff_checksum_failures_total", "")
	if affDelivered < 0 {
		attempts = 0
	}
	set("aff.useful_ratio", perUnit(affDelivered, attempts), "ratio")

	set("oracle.packets_audited", float64(orc.PacketsAudited), "count")
	set("oracle.fragments_sent", float64(orc.FragmentsSent), "count")
	set("oracle.violations", float64(orc.ConservationViolations+orc.Misdeliveries+orc.FreshnessViolations), "count")

	set("flood.forwarded", float64(relay.Forwarded), "count")
	set("flood.suppressed", float64(relay.Suppressed), "count")
	set("flood.expired", float64(relay.Expired), "count")
	set("flood.congested", float64(relay.Congested), "count")
	set("flood.useful_ratio", perUnit(float64(relay.Forwarded),
		float64(relay.Forwarded+relay.Suppressed+relay.Expired+relay.Congested)), "ratio")

	shardLayer(set, tp.outs, runSeconds)
	return m, nil
}

// mergeRegistries folds a traced pass's per-trial registries in trial
// order.
func mergeRegistries(p pass) *metrics.Registry {
	reg := metrics.NewRegistry()
	for _, o := range p.outs {
		if o.reg != nil {
			if err := reg.Merge(o.reg); err != nil {
				panic(err) // every trial registers identical instruments
			}
		}
	}
	return reg
}

func perUnit(num, den float64) float64 {
	if den <= 0 || num < 0 {
		return -1
	}
	return num / den
}
