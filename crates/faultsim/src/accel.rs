//! The campaign's shared execution context and the accelerated per-fault
//! paths: checkpointed warm starts and divergence-set propagation, with
//! bit-identical outcomes.
//!
//! Every engine runs on one [`ExecContext`]: one [`GoldenTrace`] (the full
//! per-cycle value matrix plus periodic checkpoints), the propagation
//! [`Topology`] and per-net monitor lookups, recorded once per campaign.
//! The lockstep reference ([`simulate_one`]) reads its golden values
//! from that matrix; the PPSFP engine's word lanes need no shared state,
//! and the faults it cannot batch fall back to the lockstep path. Opt in
//! to the accelerated paths with [`Campaign::engine`](crate::Campaign::engine)
//! ([`Engine::Sparse`]); each fault then takes one of two exact fast paths:
//!
//! * **Sparse** (bit flips, stuck-ats, glitches): the fault's effect is a
//!   pure state override, so the faulty run equals golden until the
//!   activation cycle by construction. A [`SparseSim`] starts *at* the
//!   activation cycle and evaluates only the fan-out cone of the nets that
//!   differ from golden, classifying the remaining cycles straight from the
//!   trace once the divergence set empties.
//! * **Warm start** (bridges, clock outages): these change evaluation
//!   semantics globally, so a full [`Simulator`] runs — but it restores the
//!   nearest checkpoint at or before the activation cycle instead of
//!   re-simulating from power-on, skips the monitors on the (provably
//!   golden) warm-up prefix, and exits early once the fault has washed out
//!   and the flip-flop state matches golden again.
//!
//! Both paths observe SENS/OBSE/output/alarm events under exactly the same
//! conditions as [`simulate_one`] — the differential tests in this module
//! and `tests/prop_accel.rs` assert bit-identical [`FaultOutcome`]s on
//! every fault kind.

use crate::campaign::Engine;
use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{apply_fault, finalize_outcome, simulate_one, target_net, FaultOutcome};
use socfmea_accel::{GoldenTrace, SparseSim, Topology};
use socfmea_core::ZoneId;
use socfmea_netlist::Logic;
use socfmea_sim::Simulator;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// True when a cooperative cancellation token has fired. Checked once per
/// simulated cycle on every engine path, so a `DELETE`d server job stops
/// promptly even inside a long single-fault simulation; the aborted
/// fault's (garbage) outcome is discarded by the campaign loop.
pub(crate) fn cancel_fired(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Per-fault work accounting: how many cycles the engine actually
/// evaluated versus how many it answered from the golden trace (the
/// warm-start prefix plus the post-convergence suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultMetrics {
    /// Cycles evaluated (sparsely or in full).
    pub(crate) simulated: u64,
    /// Cycles answered from the golden trace without evaluation.
    pub(crate) skipped: u64,
    /// Engine path that classified the fault: `lockstep`, `sparse`,
    /// `warm`, or `ppsfp` (the trace and metrics attribute work per path).
    pub(crate) engine: &'static str,
}

impl Default for FaultMetrics {
    fn default() -> FaultMetrics {
        FaultMetrics {
            simulated: 0,
            skipped: 0,
            engine: "lockstep",
        }
    }
}

/// Everything a campaign shares across faults, fixed at [`Campaign::run`]
/// time and the same for every engine: the golden trace with its
/// checkpoint store, the propagation topology, per-net monitor lookups and
/// the zones the fault list targets. Immutable after construction; worker
/// threads share it by reference (each worker owns its own simulators).
///
/// [`Campaign::run`]: crate::Campaign::run
pub(crate) struct ExecContext {
    pub(crate) trace: GoldenTrace,
    pub(crate) topo: Topology,
    /// Zone of each observation net (by net index), `None` elsewhere.
    obs_zone: Vec<Option<ZoneId>>,
    is_output: Vec<bool>,
    is_alarm: Vec<bool>,
    /// Zones the fault list targets (drives the coverage collection).
    pub(crate) injected_zones: BTreeSet<ZoneId>,
}

impl ExecContext {
    /// Records the golden trace (with checkpoints every
    /// `checkpoint_interval` cycles) and builds the monitor lookups for
    /// `env`/`faults`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be levelized.
    pub(crate) fn prepare(
        env: &Environment<'_>,
        faults: &[Fault],
        checkpoint_interval: usize,
    ) -> ExecContext {
        let trace = GoldenTrace::record(env.netlist, env.workload, checkpoint_interval)
            .expect("levelizable netlist");
        let topo = Topology::build(env.netlist).expect("levelizable netlist");
        let n = env.netlist.net_count();
        let mut obs_zone = vec![None; n];
        for &net in &env.observation_nets {
            obs_zone[net.index()] = env.zone_of_net(net);
        }
        let mut is_output = vec![false; n];
        for &net in &env.functional_outputs {
            is_output[net.index()] = true;
        }
        let mut is_alarm = vec![false; n];
        for &net in &env.alarm_nets {
            is_alarm[net.index()] = true;
        }
        ExecContext {
            trace,
            topo,
            obs_zone,
            is_output,
            is_alarm,
            injected_zones: faults.iter().filter_map(|f| f.zone).collect(),
        }
    }

    /// Approximate resident size in bytes (the artifact cache's eviction
    /// currency): the golden trace matrix and checkpoints plus the per-net
    /// monitor lookups.
    pub(crate) fn approx_bytes(&self, env: &Environment<'_>) -> usize {
        self.trace.matrix_bytes() + self.trace.checkpoint_bytes() + env.netlist.net_count() * 16
    }
}

/// Runs one fault under the campaign's resolved `engine`. The outcome is
/// bit-identical across engines; only the metrics differ.
///
/// Under PPSFP, batchable stuck-ats never reach this dispatcher (the
/// campaign routes them through `ppsfp::simulate_batch`); whatever is left
/// runs on the lockstep path, fault by fault, as it does under
/// [`Engine::Lockstep`]. Under [`Engine::Sparse`], `sparse` must carry the
/// worker's kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_dispatch(
    env: &Environment<'_>,
    ctx: &ExecContext,
    engine: Engine,
    sim: &mut Simulator<'_>,
    sparse: Option<&mut SparseSim<'_>>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    if engine != Engine::Sparse {
        let fo = simulate_one(env, &ctx.trace, sim, fault_index, fault, cancel);
        let metrics = FaultMetrics {
            simulated: env.workload.len() as u64,
            skipped: 0,
            engine: "lockstep",
        };
        return (fo, metrics);
    }
    match fault.kind {
        FaultKind::BitFlip { .. } | FaultKind::StuckAt { .. } | FaultKind::Glitch { .. } => {
            simulate_sparse(
                env,
                ctx,
                sparse.expect("sparse worker carries a sparse kernel"),
                fault_index,
                fault,
                cancel,
            )
        }
        FaultKind::Bridge { .. } | FaultKind::ClockStuck { .. } => {
            simulate_warm(env, ctx, sim, fault_index, fault, cancel)
        }
    }
}

/// The sparse path: divergence-set propagation from the activation cycle.
fn simulate_sparse(
    env: &Environment<'_>,
    ctx: &ExecContext,
    sparse: &mut SparseSim<'_>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    let len = env.workload.len();
    let inject = fault.inject_cycle;
    let target = target_net(fault);
    let mut first_mismatch = None;
    let mut alarm_cycle = None;
    let mut deviated_zones = BTreeSet::new();
    let mut sens_triggered = false;
    let mut metrics = FaultMetrics {
        simulated: 0,
        // Everything before activation is golden by construction; a fault
        // scheduled past the workload never activates at all.
        skipped: inject.min(len) as u64,
        engine: "sparse",
    };

    if inject < len {
        sparse.begin(inject);
        match &fault.kind {
            FaultKind::BitFlip { dff } => sparse.flip_ff(*dff),
            FaultKind::StuckAt { net, value } => sparse.force(*net, *value),
            FaultKind::Glitch { net, value } => sparse.pulse(*net, *value),
            _ => unreachable!("sparse path only handles state-override faults"),
        }
        for cycle in inject..len {
            if cancel_fired(cancel) {
                break;
            }
            sparse.eval_cycle();
            metrics.simulated += 1;
            // Every monitor only reacts to faulty-vs-golden differences, so
            // scanning the (exact) divergence set observes the same events
            // as the baseline's full-width comparison.
            for &net in sparse.divergent() {
                let golden = ctx.trace.value(cycle, net);
                if !sens_triggered && target == Some(net) && golden.is_known() {
                    sens_triggered = true;
                }
                if let Some(zone) = ctx.obs_zone[net.index()] {
                    if golden.is_known() {
                        deviated_zones.insert(zone);
                        if Some(zone) == fault.zone {
                            sens_triggered = true;
                        }
                    }
                }
                if first_mismatch.is_none() && ctx.is_output[net.index()] && golden.is_known() {
                    first_mismatch = Some(cycle);
                }
                // divergent && faulty == 1 implies golden != 1, the exact
                // baseline alarm condition
                if alarm_cycle.is_none()
                    && ctx.is_alarm[net.index()]
                    && sparse.get(net) == Logic::One
                {
                    alarm_cycle = Some(cycle);
                }
            }
            sparse.tick();
            if sparse.converged() {
                metrics.skipped += (len - (cycle + 1)) as u64;
                break;
            }
        }
    }

    let fo = finalize_outcome(
        env,
        fault,
        fault_index,
        first_mismatch,
        alarm_cycle,
        sens_triggered,
        deviated_zones,
    );
    (fo, metrics)
}

/// The warm-start path: full simulation restored from the nearest
/// checkpoint, monitor-free until activation, early exit on re-convergence.
fn simulate_warm(
    env: &Environment<'_>,
    ctx: &ExecContext,
    sim: &mut Simulator<'_>,
    fault_index: usize,
    fault: &Fault,
    cancel: Option<&AtomicBool>,
) -> (FaultOutcome, FaultMetrics) {
    let len = env.workload.len();
    let inject = fault.inject_cycle;
    let trace = &ctx.trace;
    let target = target_net(fault);
    let mut first_mismatch = None;
    let mut alarm_cycle = None;
    let mut deviated_zones = BTreeSet::new();
    let mut sens_triggered = false;
    let mut clock_off: Option<usize> = None;
    let mut metrics = FaultMetrics {
        simulated: 0,
        skipped: 0,
        engine: "warm",
    };

    if inject < len {
        let cp = trace
            .checkpoint_at_or_before(inject)
            .expect("non-empty trace has a cycle-0 checkpoint");
        // Restoring overwrites all dynamic state, so a reused worker
        // simulator needs no reset first.
        sim.restore(cp);
        let start = cp.cycle() as usize;
        metrics.skipped += start as u64;
        for cycle in start..len {
            if cancel_fired(cancel) {
                break;
            }
            for &(n, v) in env.workload.cycle(cycle) {
                sim.set(n, v);
            }
            if cycle == inject {
                clock_off = apply_fault(sim, fault);
            }
            if let Some(remaining) = clock_off {
                if remaining == 0 {
                    sim.suppress_clock(false);
                    clock_off = None;
                }
            }
            sim.eval();
            metrics.simulated += 1;
            if cycle >= inject {
                // Same monitor block as the lockstep reference.
                if !sens_triggered {
                    if let Some(t) = target {
                        let g = trace.value(cycle, t);
                        if g.is_known() && sim.get(t) != g {
                            sens_triggered = true;
                        }
                    }
                }
                for &net in &env.observation_nets {
                    let g = trace.value(cycle, net);
                    if g.is_known() && sim.get(net) != g {
                        if let Some(zone) = env.zone_of_net(net) {
                            deviated_zones.insert(zone);
                            if Some(zone) == fault.zone {
                                sens_triggered = true;
                            }
                        }
                    }
                }
                if first_mismatch.is_none() {
                    for &net in &env.functional_outputs {
                        let g = trace.value(cycle, net);
                        if g.is_known() && sim.get(net) != g {
                            first_mismatch = Some(cycle);
                            break;
                        }
                    }
                }
                if alarm_cycle.is_none() {
                    for &net in &env.alarm_nets {
                        if sim.get(net) == Logic::One && trace.value(cycle, net) != Logic::One {
                            alarm_cycle = Some(cycle);
                            break;
                        }
                    }
                }
            }
            sim.tick();
            if let Some(remaining) = clock_off.as_mut() {
                *remaining = remaining.saturating_sub(1);
            }
            // Early exit: once no fault hook is active and the stored
            // flip-flop state equals golden (the q value entering the next
            // cycle), the rest of the run is cycle-for-cycle golden and can
            // fire no monitor.
            if cycle >= inject && cycle + 1 < len && clock_off.is_none() && !sim.has_active_faults()
            {
                let ff_state = sim.ff_states();
                let back_in_step = sim
                    .netlist()
                    .dffs()
                    .iter()
                    .enumerate()
                    .all(|(i, ff)| ff_state[i] == trace.value(cycle + 1, ff.q));
                if back_in_step {
                    metrics.skipped += (len - (cycle + 1)) as u64;
                    break;
                }
            }
        }
    } else {
        metrics.skipped = len as u64;
    }

    let fo = finalize_outcome(
        env,
        fault,
        fault_index,
        first_mismatch,
        alarm_cycle,
        sens_triggered,
        deviated_zones,
    );
    (fo, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::env::EnvironmentBuilder;
    use crate::faultlist::{generate_fault_list, FaultListConfig};
    use crate::profile::OperationalProfile;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Workload};

    fn protected_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("prot");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 4);
        r.push_block("regs");
        let q = r.register("data", &d, None, None);
        let pin = r.parity(&d);
        let pq = r.register_bit("par", pin, None, None);
        r.pop_block();
        let pout = r.parity(&q);
        let perr = r.xor2_bit(pout, pq);
        r.output_word("o", &q);
        r.output("alarm_parity", perr);
        r.finish().unwrap()
    }

    fn workload(nl: &socfmea_netlist::Netlist, cycles: u64) -> Workload {
        let d: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c % 16);
            w.push_cycle(v);
        }
        w
    }

    fn fault_list(env: &Environment<'_>, seed: u64) -> Vec<Fault> {
        let profile = OperationalProfile::collect(env);
        generate_fault_list(
            env,
            &profile,
            &FaultListConfig {
                seed,
                ..FaultListConfig::default()
            },
        )
    }

    #[test]
    fn accelerated_campaign_is_bit_identical_to_baseline() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 16);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = fault_list(&env, 7);
        assert!(
            faults
                .iter()
                .map(|f| std::mem::discriminant(&f.kind))
                .collect::<std::collections::HashSet<_>>()
                .len()
                >= 4,
            "fixture should exercise several fault kinds"
        );
        let baseline = Campaign::new(&env, &faults).run();
        for interval in [1, 5, 64] {
            let accel = Campaign::new(&env, &faults)
                .engine(Engine::Sparse)
                .checkpoint_interval(interval)
                .run();
            assert_eq!(
                baseline, accel,
                "divergence at checkpoint interval {interval}"
            );
        }
    }

    #[test]
    fn accelerated_matches_across_thread_counts() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = fault_list(&env, 21);
        let reference = Campaign::new(&env, &faults).run();
        for threads in [1, 3] {
            let accel = Campaign::new(&env, &faults)
                .engine(Engine::Sparse)
                .threads(threads)
                .chunk(2)
                .run();
            assert_eq!(reference, accel, "divergence at {threads} threads");
        }
    }

    #[test]
    fn fault_scheduled_past_the_workload_matches_baseline() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 8);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!("register zone expected");
        };
        // an activation cycle beyond the workload: the fault never fires
        let faults = vec![Fault {
            kind: FaultKind::BitFlip { dff: dffs[0] },
            zone: Some(data.id),
            inject_cycle: 99,
            label: "late flip".into(),
        }];
        let baseline = Campaign::new(&env, &faults).run();
        let accel = Campaign::new(&env, &faults).engine(Engine::Sparse).run();
        assert_eq!(baseline, accel);
        assert_eq!(
            baseline.outcomes[0].outcome,
            crate::inject::Outcome::NoEffect
        );
    }

    #[test]
    fn accelerated_campaign_skips_cycles() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 24);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let data = zones.zone_by_name("regs/data").unwrap();
        let socfmea_core::ZoneKind::RegisterGroup { dffs } = &data.kind else {
            panic!("register zone expected");
        };
        // a late flip: the sparse path skips the long golden prefix, and
        // the (un-enabled, feed-forward) register flushes it out again
        let faults = vec![Fault {
            kind: FaultKind::BitFlip { dff: dffs[1] },
            zone: Some(data.id),
            inject_cycle: 20,
            label: "late flip".into(),
        }];
        let campaign = Campaign::new(&env, &faults).engine(Engine::Sparse);
        let stats = campaign.stats();
        let _ = campaign.run();
        assert!(
            stats.cycles_skipped() >= 20,
            "expected at least the pre-activation prefix skipped, got {}",
            stats.cycles_skipped()
        );
        assert!(stats.cycles_simulated() < 24);
        assert_eq!(stats.cycles_simulated() + stats.cycles_skipped(), 24);
    }
}
