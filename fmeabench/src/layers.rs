//! Per-layer metrics of the traced run: their names, units and the
//! end-to-end metric each should move, plus the probes that time single
//! layer calls outside a campaign or job.

use crate::pipeline::{CampaignSpec, Counts, Design, FaultMix};
use crate::serve::{self, JobRecord, ServeCounts};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::{Args, Report};
use socfmea_core::extract_zones;
use socfmea_faultsim::{
    generate_fault_list, Campaign, CampaignResult, Collapse, Engine, EnvironmentBuilder, Fault,
    FaultKind, FaultListConfig, OperationalProfile, Prune,
};
use socfmea_netlist::write_verilog;
use socfmea_serve::{random_workload, resolve, DesignRef, Example, JobSpec};
use std::collections::BTreeMap;
use std::hint::black_box;

pub const KINDS: [&str; 5] = ["bitflip", "stuck", "glitch", "bridge", "clock"];
pub const ENGINES: [(&str, Engine); 4] = [
    ("lockstep", Engine::Lockstep),
    ("sparse", Engine::Sparse),
    ("ppsfp", Engine::Ppsfp),
    ("auto", Engine::Auto),
];
/// Layers that own spans; `bench` is the benchmark's own code between calls.
pub const LAYERS: [&str; 9] = [
    "bench",
    "memsys_mcu",
    "netlist",
    "core",
    "faultsim",
    "accel",
    "static",
    "obs",
    "serve",
];

const SETUP: &str = "campaign_ms.p50 on inject-stuck";
const SETUP_SERVE: &str = "campaign_ms.p50 on inject-stuck; job_ms.p50 on serve-mixed";
const PREPARE: &str = "campaign_ms.p50 on inject-stuck; job_ms.tail on serve-mixed";
const SIMULATE: &str = "faults_per_s and campaign_ms.* on inject-mixed and inject-stuck";
const COUNTS: &str = "faults_per_s on the inject-* workload running that engine";
const ROUTING: &str = "faults_per_s on inject-mixed";
const WARM: &str = "job_ms.p50 on serve-mixed";
const COLD: &str = "job_ms.tail and jobs_per_s on serve-mixed";
const CLIENT: &str = "job_ms.*, first_record_ms.p50 and failed on serve-mixed";

/// (name, unit, end-to-end metric it should move) for every fixed
/// per-layer metric; the routing table and self times are added by
/// [`per_layer`].
const FIXED: [(&str, &str, &str); 43] = [
    ("elaborate_ms", "ms", SETUP_SERVE),
    ("core.extract_zones_ms", "ms", SETUP_SERVE),
    ("core.zones", "count", SETUP_SERVE),
    ("faultsim.profile_ms", "ms", SETUP),
    ("faultsim.fault_list_ms", "ms", SETUP),
    ("faultsim.faults", "count", SETUP),
    ("faultsim.prepare_ms", "ms", PREPARE),
    ("faultsim.artifact_bytes", "bytes", PREPARE),
    ("accel.topology_ms", "ms", PREPARE),
    ("accel.golden_ms", "ms", PREPARE),
    ("static.analyze_ms", "ms", PREPARE),
    ("faultsim.collapser_ms", "ms", PREPARE),
    ("faultsim.simulate_ms", "ms", SIMULATE),
    ("faultsim.cycles_simulated", "count", COUNTS),
    ("faultsim.cycles_skipped", "count", COUNTS),
    ("faultsim.faults_simulated", "count", COUNTS),
    ("faultsim.faults_collapsed", "count", COUNTS),
    ("faultsim.faults_pruned", "count", COUNTS),
    ("ppsfp.batches", "count", COUNTS),
    ("ppsfp.words", "count", COUNTS),
    ("ppsfp.lanes_per_word", "lanes/word", COUNTS),
    (
        "faultsim.analyze_ms",
        "ms",
        "nothing (should stay negligible)",
    ),
    ("obs.trace_ms", "ms", WARM),
    ("obs.trace_bytes", "bytes", WARM),
    ("serve.spec_parse_ms.example", "ms", WARM),
    ("serve.spec_parse_ms.verilog", "ms", COLD),
    ("serve.resolve_ms.example", "ms", WARM),
    ("serve.resolve_ms.verilog", "ms", COLD),
    ("netlist.parse_verilog_ms", "ms", COLD),
    ("netlist.write_verilog_ms", "ms", COLD),
    ("serve.submit_ms.p50", "ms", CLIENT),
    ("serve.submit_ms.tail", "ms", CLIENT),
    ("serve.wait_ms.p50", "ms", CLIENT),
    ("serve.stream_ms.p50", "ms", CLIENT),
    ("serve.trace_bytes_per_job", "bytes", CLIENT),
    ("serve.rejected", "count", CLIENT),
    ("serve.cache.design.hit", "count", CLIENT),
    ("serve.cache.design.miss", "count", CLIENT),
    ("serve.cache.spec.hit", "count", CLIENT),
    ("serve.cache.spec.miss", "count", CLIENT),
    ("serve.cache.spec.hit_ratio", "ratio", CLIENT),
    (
        "trace.overhead_pct",
        "%",
        "nothing (traced minus untraced p50 of one campaign or job)",
    ),
    (
        "ops_per_pass",
        "count",
        "nothing (campaigns or jobs per traced pass)",
    ),
];

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Every per-layer metric: (name, unit, the end-to-end metric and
/// workload it should move).
pub fn per_layer() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = FIXED.to_vec();
    for kind in KINDS {
        for (engine, _) in ENGINES {
            out.push((leak(format!("simulate.{kind}.{engine}_ms")), "ms", ROUTING));
        }
        out.push((leak(format!("simulate.{kind}.faults")), "count", ROUTING));
    }
    for layer in LAYERS {
        out.push((
            leak(format!("self_ms.{layer}")),
            "ms",
            "the end-to-end times of this workload (self time per traced operation)",
        ));
    }
    out
}

fn kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::BitFlip { .. } => "bitflip",
        FaultKind::StuckAt { .. } => "stuck",
        FaultKind::Glitch { .. } => "glitch",
        FaultKind::Bridge { .. } => "bridge",
        FaultKind::ClockStuck { .. } => "clock",
    }
}

/// The `inject-mixed` campaign for one seed.
pub fn inject_mixed_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        design: Design::Example(Example::Fmem),
        seed,
        cycles: 200,
        mix: FaultMix::Default,
        engine: Engine::Auto,
        collapse: Collapse::Off,
        prune: Prune::Off,
        threads: 2,
    }
}

/// The per-kind routing table: each fault kind's sub-list of the
/// `inject-mixed` fault list, run alone on every engine. Each sub-list
/// result, put back at its fault-list positions, must equal the whole-list
/// lockstep result. Returns fault counts per kind.
pub fn routing_table(
    seed: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> BTreeMap<&'static str, u64> {
    let spec = inject_mixed_spec(seed);
    let Design::Example(example) = spec.design else {
        unreachable!("inject-mixed runs on a bundled example")
    };
    let (netlist, config) = example.build().expect("bundled examples elaborate");
    let zones = extract_zones(&netlist, &config);
    let workload = random_workload(&netlist, seed, spec.cycles);
    let env = EnvironmentBuilder::new(&netlist, &zones, &workload)
        .alarms_matching("alarm")
        .build();
    let profile = OperationalProfile::collect(&env);
    let faults = generate_fault_list(
        &env,
        &profile,
        &FaultListConfig {
            seed,
            ..FaultListConfig::default()
        },
    );
    let run = |faults: &[Fault], engine| -> CampaignResult {
        Campaign::new(&env, faults)
            .threads(spec.threads)
            .seed(seed)
            .engine(engine)
            .checkpoint_interval(crate::pipeline::CHECKPOINT_INTERVAL)
            .run()
    };
    let whole = run(&faults, Engine::Lockstep);
    let mut counts = BTreeMap::new();
    for kind in KINDS {
        let positions: Vec<usize> = (0..faults.len())
            .filter(|&i| kind_name(&faults[i].kind) == kind)
            .collect();
        let sub: Vec<Fault> = positions.iter().map(|&i| faults[i].clone()).collect();
        counts.insert(kind, sub.len() as u64);
        for (engine_name, engine) in ENGINES {
            let name = leak(format!("simulate.{kind}.{engine_name}"));
            let result = spans.time(name, || run(&sub, engine));
            for (o, &pos) in result.outcomes.iter().zip(&positions) {
                let mut o = o.clone();
                o.fault_index = pos;
                if o != whole.outcomes[pos] {
                    report.mismatch(format!(
                        "routing: {kind} fault #{pos} on {engine_name} differs from the \
                         whole-list lockstep outcome (seed {seed})"
                    ));
                }
            }
            if result.outcomes.len() != sub.len() {
                report.mismatch(format!(
                    "routing: {kind} on {engine_name} committed {} of {} faults",
                    result.outcomes.len(),
                    sub.len()
                ));
            }
        }
    }
    counts
}

/// A job submission body for a campaign spec, as a client would post it.
pub fn job_body(spec: &CampaignSpec, tenant: &str, design: DesignRef) -> String {
    JobSpec {
        tenant: tenant.into(),
        design,
        seed: spec.seed,
        cycles: spec.cycles,
        threads: 0,
        engine: spec.engine,
        checkpoint_interval: crate::pipeline::CHECKPOINT_INTERVAL,
        collapse: spec.collapse,
        prune: spec.prune,
    }
    .render()
}

/// Renames the module of a `write_verilog` dump.
pub fn rename_module(dump: &str, from: &str, to: &str) -> String {
    dump.replacen(&format!("module {from} ("), &format!("module {to} ("), 1)
}

/// Times the server's inner calls on one request body: spec parsing and
/// design resolution, plus the Verilog reader and writer on the design.
pub fn probe_serve_calls(body: &str, spans: &mut Spans) {
    let name = if body.contains("\"verilog\":") {
        "serve.spec_parse.verilog"
    } else {
        "serve.spec_parse.example"
    };
    let spec = spans
        .time(name, || JobSpec::parse(body))
        .expect("the benchmark's own job bodies parse");
    let resolved = match &spec.design {
        DesignRef::Example(_) => spans.time("serve.resolve.example", || resolve(&spec.design)),
        DesignRef::Verilog(src) => {
            black_box(
                spans
                    .time("netlist.parse_verilog", || {
                        socfmea_netlist::parse_verilog(src)
                    })
                    .expect("generated Verilog parses"),
            );
            spans.time("serve.resolve.verilog", || resolve(&spec.design))
        }
    }
    .expect("the benchmark's own designs resolve");
    black_box(spans.time("netlist.write_verilog", || write_verilog(&resolved.netlist)));
}

/// Median of the spans named `name` in ms, and the sample count.
fn median(spans: &Spans, name: &str) -> (f64, usize) {
    let mut s = Samples::default();
    for d in spans.durations(name) {
        s.push(d);
    }
    assert!(s.len() > 0, "no `{name}` spans were recorded");
    (s.p50(), s.len())
}

/// The deterministic counts of one traced pass: campaign work, served jobs
/// and cache traffic, and the routing table's fault counts per kind.
pub type PassCounts = (Counts, ServeCounts, BTreeMap<&'static str, u64>);

/// Emits every per-layer metric of a traced run from its spans, the counts
/// of its two passes (which must be identical) and its served jobs, and
/// writes the spans out.
#[allow(clippy::too_many_arguments)]
pub fn emit_traced(
    args: &Args,
    report: &mut Report,
    spans: &Spans,
    mut passes: Vec<PassCounts>,
    client_records: &[JobRecord],
    ops_per_pass: usize,
    untraced: &Samples,
    traced: &Samples,
) {
    if passes[0] != passes[1] {
        report.mismatch(format!(
            "deterministic counts differ between two traced passes: {:?} vs {:?}",
            passes[0], passes[1]
        ));
    }
    let (counts, serve_counts, routing) = passes.swap_remove(0);
    report.metric("ops_per_pass", ops_per_pass as f64, "count");
    emit_span_metrics(spans, report);
    emit_counts(&counts, &routing, report);
    serve::emit_client_metrics(client_records, &serve_counts, report);
    let (obs_ms, n) = obs_trace_delta(spans);
    report.metric("obs.trace_ms", obs_ms, "ms");
    report.fact("obs.trace_ms.samples", n);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced.p50() / untraced.p50() - 1.0),
        "%",
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => eprintln!("fmeabench: spans written to {}", path.display()),
        Err(e) => eprintln!("fmeabench: cannot write {}: {e}", path.display()),
    }
}

/// Median of (observed re-run − plain simulate) over the probed campaigns,
/// and the sample count.
fn obs_trace_delta(spans: &Spans) -> (f64, usize) {
    let plain = spans.durations("faultsim.simulate");
    let observed = spans.durations("obs.trace");
    assert_eq!(
        plain.len(),
        observed.len(),
        "every probed campaign re-runs observed"
    );
    let mut s = Samples::default();
    for (o, p) in observed.iter().zip(&plain) {
        s.push(o - p);
    }
    (s.p50(), s.len())
}

/// Emits the span-timed per-layer metrics: medians over all recorded
/// spans of each layer call, and self time per layer per traced operation
/// (a campaign, a served job, or one pass's routing table).
fn emit_span_metrics(spans: &Spans, report: &mut Report) {
    for (metric, span) in [
        ("elaborate_ms", "elaborate"),
        ("core.extract_zones_ms", "core.extract_zones"),
        ("faultsim.profile_ms", "faultsim.profile"),
        ("faultsim.fault_list_ms", "faultsim.fault_list"),
        ("faultsim.prepare_ms", "faultsim.prepare"),
        ("accel.topology_ms", "accel.topology"),
        ("accel.golden_ms", "accel.golden"),
        ("static.analyze_ms", "static.analyze"),
        ("faultsim.collapser_ms", "faultsim.collapser"),
        ("faultsim.simulate_ms", "faultsim.simulate"),
        ("faultsim.analyze_ms", "faultsim.analyze"),
        ("serve.spec_parse_ms.example", "serve.spec_parse.example"),
        ("serve.spec_parse_ms.verilog", "serve.spec_parse.verilog"),
        ("serve.resolve_ms.example", "serve.resolve.example"),
        ("serve.resolve_ms.verilog", "serve.resolve.verilog"),
        ("netlist.parse_verilog_ms", "netlist.parse_verilog"),
        ("netlist.write_verilog_ms", "netlist.write_verilog"),
    ] {
        let (ms, n) = median(spans, span);
        report.metric(metric, ms, "ms");
        report.fact(format!("{metric}.samples"), n);
    }
    for kind in KINDS {
        for (engine, _) in ENGINES {
            let metric = format!("simulate.{kind}.{engine}_ms");
            let (ms, n) = median(spans, &format!("simulate.{kind}.{engine}"));
            report.metric(&metric, ms, "ms");
            report.fact(format!("{metric}.samples"), n);
        }
    }
    let (by_layer, ops) = spans.self_ms_by_layer();
    report.fact("self_ms.operations", ops);
    for layer in LAYERS {
        let total = by_layer.get(layer).copied().unwrap_or(0.0);
        report.metric(format!("self_ms.{layer}"), total / ops as f64, "ms");
    }
}

/// Emits the deterministic work counts of one traced pass.
fn emit_counts(c: &Counts, routing: &BTreeMap<&'static str, u64>, report: &mut Report) {
    report.metric("core.zones", c.zones as f64, "count");
    report.metric("faultsim.faults", c.faults as f64, "count");
    report.metric("faultsim.artifact_bytes", c.artifact_bytes as f64, "bytes");
    report.metric(
        "faultsim.cycles_simulated",
        c.cycles_simulated as f64,
        "count",
    );
    report.metric("faultsim.cycles_skipped", c.cycles_skipped as f64, "count");
    report.metric(
        "faultsim.faults_simulated",
        c.faults_simulated as f64,
        "count",
    );
    report.metric(
        "faultsim.faults_collapsed",
        c.faults_collapsed as f64,
        "count",
    );
    report.metric("faultsim.faults_pruned", c.faults_pruned as f64, "count");
    report.metric("ppsfp.batches", c.ppsfp_batches as f64, "count");
    report.metric("ppsfp.words", c.ppsfp_words as f64, "count");
    // useful lanes per batch word, out of the 63 fault lanes beside golden
    let lanes_per_word = if c.ppsfp_batches == 0 {
        0.0
    } else {
        c.ppsfp_lanes as f64 / c.ppsfp_batches as f64
    };
    report.metric("ppsfp.lanes_per_word", lanes_per_word, "lanes/word");
    report.metric("obs.trace_bytes", c.trace_bytes as f64, "bytes");
    for kind in KINDS {
        report.metric(
            format!("simulate.{kind}.faults"),
            routing[kind] as f64,
            "count",
        );
    }
}
