package main

import (
	"fmt"
	"math"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/experiment"
	"retri/internal/metrics"
	"retri/internal/oracle"
	"retri/internal/radio"
	"retri/internal/xrand"
)

// The full-stack workloads call the same exported trial runners as the
// retri-experiments sweeps, with each trial's source derived from the
// seed under the same labels the sweep uses, so a benchmark trial is the
// sweep's trial at a shorter duration. A trial's world is built without
// simulating by running it at zero duration.

// collisionT is the transaction density of the collision-mesh testbed:
// every transmitter streams continuously, so T equals the transmitter
// count, and Equation 4 is evaluated there.
const collisionT = 5

var collisionMesh = &workload{
	name:   "collision-mesh",
	trials: collisionTrials,
}

// collisionConfig is the paper's Section 5.1 testbed (5 transmitters,
// 80-byte packets, full mesh, widths 2-10, uniform and listening) in many
// short trials. Each trial still takes tens of host milliseconds, so a
// scheduler hiccup or a garbage-collection assist does not dominate the
// trial-time tail.
func collisionConfig(seed uint64) experiment.Figure4Config {
	cfg := experiment.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = 20 * time.Second
	cfg.Trials = 10
	return cfg
}

func collisionTrials(seed uint64) []trial {
	cfg := collisionConfig(seed)
	src := xrand.NewSource(seed).Child("figure4")
	var ts []trial
	for _, sel := range cfg.Selectors {
		for _, bits := range cfg.IDBits {
			perTx := fragmentsPerPacket(bits, cfg.PacketSize)
			for i := 0; i < cfg.Trials; i++ {
				sel, bits, tsrc := sel, bits, src.Child(string(sel), fmt.Sprint(bits), fmt.Sprint(i))
				ts = append(ts, trial{
					run: func(traced bool) (outcome, error) { return collisionTrial(cfg, sel, bits, perTx, tsrc, traced) },
					build: func() error {
						c := cfg
						c.Duration = 0
						_, err := experiment.RunCollisionTrial(c, sel, bits, tsrc)
						return err
					},
				})
			}
		}
	}
	return ts
}

func collisionTrial(cfg experiment.Figure4Config, sel experiment.SelectorKind, bits, perTx int, src *xrand.Source, traced bool) (outcome, error) {
	if traced {
		cfg.Obs = &experiment.Obs{Metrics: metrics.NewRegistry()}
	}
	out, err := experiment.RunCollisionTrial(cfg, sel, bits, src)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		digest: fmt.Sprintf("%s/%d truth=%d aff=%d rate=%x estT=%x", sel, bits,
			out.TruthDelivered, out.AFFDelivered, math.Float64bits(out.CollisionRate), math.Float64bits(out.EstimatedT)),
		truth:       out.TruthDelivered,
		reassembled: out.AFFDelivered,
	}
	switch {
	case out.TruthDelivered == 0:
		o.failure = "ground truth delivered nothing"
	case out.AFFDelivered > out.TruthDelivered:
		o.failure = fmt.Sprintf("AFF delivered %d packets, more than ground truth's %d", out.AFFDelivered, out.TruthDelivered)
	}
	if sel == experiment.SelUniform {
		o.eq4Bits = bits
		o.lost = out.TruthDelivered - out.AFFDelivered
	}
	if traced {
		o.reg = out.Obs.Metrics
		// Every transaction is one identifier draw and one fixed-size
		// fragment train, so draws follow from frames on the air.
		sent := o.reg.Counter("radio_events_total", "kind=sent").Value()
		if sent%int64(perTx) != 0 {
			return outcome{}, fmt.Errorf("%d frames sent is not a whole number of %d-frame packets", sent, perTx)
		}
		o.draws = sent / int64(perTx)
	}
	return o, nil
}

// fragmentsPerPacket is the number of frames (introduction plus data
// fragments) one packet of the given size takes at the given width.
func fragmentsPerPacket(bits, size int) int {
	space := core.MustSpace(bits)
	f, err := aff.NewFragmenter(aff.Config{Space: space, MTU: radio.DefaultParams().MTU, Instrument: true},
		core.NewSequentialSelector(space, 0), 1)
	if err != nil {
		panic(err)
	}
	tx, err := f.Fragment(make([]byte, size))
	if err != nil {
		panic(err)
	}
	return len(tx.Fragments)
}

var dynamicsMobile = &workload{
	name:   "dynamics-mobile",
	trials: dynamicsTrials,
}

// dynamicsConfig runs the moving and churning scenarios of the dynamics
// sweep, fixed against adaptive-turnover width, with the passive oracle.
func dynamicsConfig(seed uint64) experiment.DynamicsConfig {
	cfg := experiment.DefaultDynamicsConfig()
	cfg.Seed = seed
	cfg.Duration = 10 * time.Second
	cfg.Trials = 10
	cfg.Scenarios = []experiment.DynScenario{experiment.DynWaypoint, experiment.DynChurn, experiment.DynGroup}
	cfg.Policies = []experiment.WidthPolicyKind{experiment.WidthFixed, experiment.WidthAdaptiveTurnover}
	cfg.Oracle = true
	return cfg
}

func dynamicsTrials(seed uint64) []trial {
	cfg := dynamicsConfig(seed)
	src := xrand.NewSource(seed).Child("dynamics")
	var ts []trial
	for _, sc := range cfg.Scenarios {
		for _, p := range cfg.Policies {
			for i := 0; i < cfg.Trials; i++ {
				sc, p, tsrc := sc, p, src.Child(string(sc), string(p), fmt.Sprint(i))
				ts = append(ts, trial{
					run: func(traced bool) (outcome, error) { return dynamicsTrial(cfg, sc, p, tsrc, traced) },
					build: func() error {
						c := cfg
						c.Duration = 0
						_, err := experiment.RunDynamicsTrial(c, sc, p, tsrc)
						return err
					},
				})
			}
		}
	}
	return ts
}

func dynamicsTrial(cfg experiment.DynamicsConfig, sc experiment.DynScenario, p experiment.WidthPolicyKind, src *xrand.Source, traced bool) (outcome, error) {
	if traced {
		cfg.Obs = &experiment.Obs{Metrics: metrics.NewRegistry()}
	}
	out, err := experiment.RunDynamicsTrial(cfg, sc, p, src)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		digest: fmt.Sprintf("%s/%s offered=%d truth=%d aff=%d bits=%d tx=%d ach=%x gap=%x churn=%+v %s",
			sc, p, out.Offered, out.TruthDelivered, out.AFFDelivered, out.DeliveredBits, out.TxBits,
			math.Float64bits(out.MeanAchievedH), math.Float64bits(out.HGap), out.Churn, oracleDigest(out.Oracle)),
		truth:       out.TruthDelivered,
		reassembled: out.AFFDelivered,
		adaptive:    p != experiment.WidthFixed,
		gap:         out.HGap,
		failure:     oracleFailure(out.Oracle),
	}
	if traced {
		o.reg = out.Obs.Metrics
		o.oracle = out.Oracle
		if out.Oracle != nil {
			o.draws = out.Oracle.TransactionsOpened
		}
	}
	return o, nil
}

// multihopFlood runs two trials at once: its trials take seconds each and
// cost varies from input to input, so a pass needs many of them, and its
// garbage collector is idle enough (about 1% of CPU) to leave the second
// CPU to a second trial.
var multihopFlood = &workload{
	name:    "multihop-flood",
	trials:  multihopTrials,
	workers: 2,
}

// multihopConfig floods TTL-3 toward a sink over the fixed and
// adaptive-turnover arms, with the always-on relay-aware oracle. A trial
// runs one and a half times the sweep's 10 s dedup and oracle-retention
// windows, so the relay's duplicate table and the oracle's audit state
// reach their steady size and their expiry scans delete entries, as in
// the sweep's 2-minute trials; shorter trials measure only their growth.
// Trial cost varies by about a fifth from input to input, so a pass holds
// as many trials as fit one budget: with fewer, longer trials the pass's
// percentiles depend on which inputs the seed draws.
func multihopConfig(seed uint64) experiment.MultihopConfig {
	cfg := experiment.DefaultMultihopConfig()
	cfg.Seed = seed
	cfg.Duration = 15 * time.Second
	cfg.Trials = 12
	cfg.Arms = []experiment.MultihopArm{experiment.MultihopFixed, experiment.MultihopAdaptive}
	return cfg
}

func multihopTrials(seed uint64) []trial {
	cfg := multihopConfig(seed)
	src := xrand.NewSource(seed).Child("multihop")
	var ts []trial
	for _, arm := range cfg.Arms {
		for i := 0; i < cfg.Trials; i++ {
			arm, tsrc := arm, src.Child(string(arm), fmt.Sprint(i))
			ts = append(ts, trial{
				run: func(traced bool) (outcome, error) { return multihopTrial(cfg, arm, tsrc, traced) },
				build: func() error {
					c := cfg
					c.Duration = 0
					_, err := experiment.RunMultihopTrial(c, arm, tsrc)
					return err
				},
			})
		}
	}
	return ts
}

func multihopTrial(cfg experiment.MultihopConfig, arm experiment.MultihopArm, src *xrand.Source, traced bool) (outcome, error) {
	if traced {
		cfg.Obs = &experiment.Obs{Metrics: metrics.NewRegistry()}
	}
	out, err := experiment.RunMultihopTrial(cfg, arm, src)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		digest: fmt.Sprintf("%s offered=%d failed=%d truth=%d got=%d tx=%d ach=%x gap=%x relay=%+v churn=%+v %s",
			arm, out.Offered, out.SendFailures, out.TruthDelivered, out.Delivered, out.TxBits,
			math.Float64bits(out.MeanAchievedH), math.Float64bits(out.HGap), out.Relay, out.Churn, oracleDigest(out.Oracle)),
		truth:       out.TruthDelivered,
		reassembled: out.Delivered,
		adaptive:    arm == experiment.MultihopAdaptive,
		gap:         out.HGap,
		failure:     oracleFailure(out.Oracle),
	}
	if traced {
		o.reg = out.Obs.Metrics
		o.oracle = out.Oracle
		o.relay = out.Relay
		if out.Oracle != nil {
			o.draws = out.Oracle.TransactionsOpened
		}
	}
	return o, nil
}

// oracleFailure fails a trial whose oracle is missing or saw a violation.
func oracleFailure(r *oracle.Report) string {
	if r == nil {
		return "no oracle report attached"
	}
	if err := r.Check(); err != nil {
		return err.Error()
	}
	return ""
}

func oracleDigest(r *oracle.Report) string {
	if r == nil {
		return "oracle=none"
	}
	return fmt.Sprintf("oracle=%d/%d/%d/%d/%d/%d", r.TransactionsOpened, r.FragmentsSent, r.PacketsAudited,
		r.ConservationViolations, r.Misdeliveries, r.FreshnessViolations)
}
