//! The PPSFP campaign engine: bit-parallel stuck-at batches on a
//! word-level simulation core.
//!
//! Pattern-parallel single-fault propagation turned fault-parallel: a
//! [`WordSim`] carries 64 lanes per net — lane 0 golden, lanes
//! `1..=FAULT_LANES` each loaded with one stuck-at fault — so the levelized
//! netlist walk is paid **once per workload cycle for up to 63 faults**,
//! instead of once per cycle per fault. Every monitor of the lockstep
//! reference ([`simulate_one`](crate::inject::simulate_one)) has an exact
//! word-level form:
//!
//! * **SENS** — the fault's own target net diverges from lane 0 while the
//!   golden value is known: `golden_known(t) && diff_mask(t) & lane_bit`.
//! * **OBSE** — an observation net diverges: the deviated zone is recorded
//!   per lane; a hit on the fault's own zone also sets SENS.
//! * **Functional outputs** — first divergence cycle per lane.
//! * **Alarms** — a lane is exactly `One` where the golden lane is not:
//!   `one_mask` with a clear golden bit.
//!
//! Lane *i* of a batch evolves bit-for-bit like a scalar [`Simulator`]
//! (crate::inject's engine) carrying the same persistent force, so the
//! per-lane verdicts fed through [`finalize_outcome`] are **bit-identical**
//! to the lockstep engine's [`FaultOutcome`]s — the property
//! `tests/ppsfp_differential.rs` asserts on every example design.
//!
//! Only known-value stuck-at faults batch (a stuck-at is the only fault
//! kind that is a pure persistent per-net override); everything else falls
//! back to the lockstep path per fault.

use crate::env::Environment;
use crate::faultlist::{Fault, FaultKind};
use crate::inject::{finalize_outcome, target_net, FaultOutcome};
use socfmea_core::ZoneId;
use socfmea_netlist::{Logic, NetId};
use socfmea_sim::{WordSim, FAULT_LANES};
use std::collections::BTreeSet;

/// True when a fault can ride a PPSFP word lane: a stuck-at with a known
/// (`0`/`1`) value. `Engine::Auto` batches a fault list iff every fault
/// satisfies this.
pub(crate) fn batchable(fault: &Fault) -> bool {
    matches!(fault.kind, FaultKind::StuckAt { value, .. } if value.is_known())
}

/// Per-lane monitor state while a batch runs.
struct LaneState {
    net: NetId,
    value: Logic,
    inject_cycle: usize,
    first_mismatch: Option<usize>,
    alarm_cycle: Option<usize>,
    sens_triggered: bool,
    deviated_zones: BTreeSet<ZoneId>,
}

/// Simulates one batch of up to [`FAULT_LANES`] stuck-at faults against the
/// shared workload, returning one [`FaultOutcome`] per fault in batch
/// order.
///
/// `word` is reused across batches: the function resets it to power-on
/// (clearing previous lane pins) first, so a campaign worker pays
/// levelization once. The result is a pure function of `(env, batch)`.
///
/// # Panics
///
/// Panics if the batch is empty, exceeds [`FAULT_LANES`], or contains a
/// non-[`batchable`] fault.
pub(crate) fn simulate_batch(
    env: &Environment<'_>,
    word: &mut WordSim<'_>,
    batch: &[(usize, &Fault)],
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Vec<FaultOutcome> {
    assert!(
        !batch.is_empty() && batch.len() <= FAULT_LANES,
        "a PPSFP batch holds 1..={FAULT_LANES} faults, got {}",
        batch.len()
    );
    word.reset_to_power_on();
    let mut lanes: Vec<LaneState> = batch
        .iter()
        .map(|&(_, fault)| {
            let FaultKind::StuckAt { net, value } = fault.kind else {
                panic!("PPSFP batches hold stuck-at faults only");
            };
            assert!(value.is_known(), "stuck-at value must be 0 or 1");
            LaneState {
                net,
                value,
                inject_cycle: fault.inject_cycle,
                first_mismatch: None,
                alarm_cycle: None,
                sens_triggered: false,
                deviated_zones: BTreeSet::new(),
            }
        })
        .collect();

    for (cycle, inputs) in env.workload.iter().enumerate() {
        if crate::accel::cancel_fired(cancel) {
            break;
        }
        for &(n, v) in inputs {
            word.set(n, v);
        }
        // Lane pins activate at each fault's own inject cycle and persist,
        // mirroring the lockstep engine's `apply_fault` timing (before the
        // eval of the activation cycle).
        for (li, lane) in lanes.iter().enumerate() {
            if lane.inject_cycle == cycle {
                word.force_lane(lane.net, li + 1, lane.value);
            }
        }
        word.eval();

        // SENS: did the injection physically disturb its target net?
        for (li, lane) in lanes.iter_mut().enumerate() {
            if !lane.sens_triggered
                && word.golden_known(lane.net)
                && word.diff_mask(lane.net) & (1 << (li + 1)) != 0
            {
                lane.sens_triggered = true;
            }
        }
        // OBSE: observation-point deviations, per diverged lane
        for &net in &env.observation_nets {
            if !word.golden_known(net) {
                continue;
            }
            let mut diff = word.diff_mask(net);
            if diff == 0 {
                continue;
            }
            let Some(zone) = env.zone_of_net(net) else {
                continue;
            };
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                if let Some(lane) = lanes.get_mut(bit - 1) {
                    lane.deviated_zones.insert(zone);
                    if Some(zone) == batch[bit - 1].1.zone {
                        lane.sens_triggered = true;
                    }
                }
            }
        }
        // functional outputs: first divergence cycle per lane
        for &net in &env.functional_outputs {
            if !word.golden_known(net) {
                continue;
            }
            let mut diff = word.diff_mask(net);
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                if let Some(lane) = lanes.get_mut(bit - 1) {
                    if lane.first_mismatch.is_none() {
                        lane.first_mismatch = Some(cycle);
                    }
                }
            }
        }
        // alarms: a lane asserts (exactly One) where the golden lane does
        // not — the word form of `faulty == One && golden != One`
        for &net in &env.alarm_nets {
            let ones = word.one_mask(net);
            if ones & 1 != 0 {
                continue; // golden asserts too: no lane can newly alarm
            }
            let mut firing = ones;
            while firing != 0 {
                let bit = firing.trailing_zeros() as usize;
                firing &= firing - 1;
                if let Some(lane) = lanes.get_mut(bit - 1) {
                    if lane.alarm_cycle.is_none() {
                        lane.alarm_cycle = Some(cycle);
                    }
                }
            }
        }

        word.tick();
    }

    batch
        .iter()
        .zip(lanes)
        .map(|(&(fault_index, fault), lane)| {
            debug_assert_eq!(target_net(fault), Some(lane.net));
            finalize_outcome(
                env,
                fault,
                fault_index,
                lane.first_mismatch,
                lane.alarm_cycle,
                lane.sens_triggered,
                lane.deviated_zones,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::ExecContext;
    use crate::campaign::Campaign;
    use crate::env::EnvironmentBuilder;
    use crate::inject::simulate_one;
    use socfmea_core::extract::{extract_zones, ExtractConfig};
    use socfmea_netlist::Driver;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::{assign_bus, Simulator, Workload};

    fn protected_design() -> socfmea_netlist::Netlist {
        let mut r = RtlBuilder::new("prot");
        let _clk = r.clock_input("clk");
        let d = r.input_word("d", 8);
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
        let d: Vec<_> = (0..8)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &d, c.wrapping_mul(37) % 256);
            w.push_cycle(v);
        }
        w
    }

    /// Every stuck-at on every driven net, staggered inject cycles.
    fn stuck_list(nl: &socfmea_netlist::Netlist) -> Vec<Fault> {
        let mut faults = Vec::new();
        for (i, net) in nl.nets().iter().enumerate() {
            if matches!(net.driver, Driver::None | Driver::Const(_)) {
                continue;
            }
            for value in [Logic::Zero, Logic::One] {
                faults.push(Fault {
                    kind: FaultKind::StuckAt {
                        net: NetId::from_index(i),
                        value,
                    },
                    zone: None,
                    inject_cycle: faults.len() % 5,
                    label: format!("stuck {}-sa{value}", net.name),
                });
            }
        }
        faults
    }

    #[test]
    fn batched_outcomes_equal_the_lockstep_engine_fault_for_fault() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 12);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let faults = stuck_list(&nl);
        assert!(faults.len() > FAULT_LANES, "want more than one batch");
        let ctx = ExecContext::prepare(&env, &faults, Campaign::DEFAULT_CHECKPOINT_INTERVAL);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut word = WordSim::new(&nl).unwrap();
        for chunk in faults
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .chunks(FAULT_LANES)
        {
            let got = simulate_batch(&env, &mut word, chunk, None);
            for (&(fi, fault), fo) in chunk.iter().zip(&got) {
                let want = simulate_one(&env, &ctx.trace, &mut sim, fi, fault, None);
                assert_eq!(&want, fo, "fault #{fi} ({}) diverges", fault.label);
            }
        }
    }

    #[test]
    fn late_injection_past_the_workload_is_no_effect() {
        let nl = protected_design();
        let zones = extract_zones(&nl, &ExtractConfig::default());
        let w = workload(&nl, 8);
        let env = EnvironmentBuilder::new(&nl, &zones, &w)
            .alarms_matching("alarm_")
            .build();
        let fault = Fault {
            kind: FaultKind::StuckAt {
                net: nl.net_by_name("data[0]").unwrap(),
                value: Logic::One,
            },
            zone: None,
            inject_cycle: 99,
            label: "never fires".into(),
        };
        let mut word = WordSim::new(&nl).unwrap();
        let got = simulate_batch(&env, &mut word, &[(0, &fault)], None);
        assert_eq!(got[0].outcome, crate::inject::Outcome::NoEffect);
        assert!(!got[0].sens_triggered);
    }

    #[test]
    fn batchable_accepts_known_stuck_ats_only() {
        let net = NetId::from_index(0);
        let stuck = |value| Fault {
            kind: FaultKind::StuckAt { net, value },
            zone: None,
            inject_cycle: 0,
            label: "f".into(),
        };
        assert!(batchable(&stuck(Logic::Zero)));
        assert!(batchable(&stuck(Logic::One)));
        assert!(!batchable(&stuck(Logic::X)));
        assert!(!batchable(&Fault {
            kind: FaultKind::Glitch {
                net,
                value: Logic::One
            },
            zone: None,
            inject_cycle: 0,
            label: "g".into(),
        }));
    }
}
