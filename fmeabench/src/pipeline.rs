//! One local fault-injection campaign through the program's public API,
//! step by step, with a span around each layer call.

use crate::spans::Spans;
use socfmea_accel::{GoldenTrace, Topology};
use socfmea_core::{extract_zones, ExtractConfig};
use socfmea_faultsim::{
    analyze, generate_fault_list, Campaign, CampaignArtifacts, CampaignResult, Collapse, Engine,
    Environment, EnvironmentBuilder, Fault, FaultCollapser, FaultKind, FaultListConfig,
    OperationalProfile, Prune, TestabilityAnalysis,
};
use socfmea_netlist::{parse_verilog, Driver, Logic, NetId, Netlist};
use socfmea_obs::{Observer, TraceEvent, TraceSink};
use socfmea_serve::{random_workload, Example};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The golden-trace checkpoint spacing `socfmea inject` uses by default.
pub const CHECKPOINT_INTERVAL: usize = 16;

#[derive(Debug, Clone)]
pub enum Design {
    Example(Example),
    /// Structural Verilog, zoned with the default extraction config (what
    /// the server does with an inline `verilog` submission).
    Verilog(Arc<str>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMix {
    /// `generate_fault_list` with the default config.
    Default,
    /// Both stuck-at polarities on every driven, non-constant net.
    ExhaustiveStuck,
}

#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub design: Design,
    pub seed: u64,
    pub cycles: usize,
    pub mix: FaultMix,
    pub engine: Engine,
    pub collapse: Collapse,
    pub prune: Prune,
    pub threads: usize,
}

impl CampaignSpec {
    /// The same campaign on the lockstep engine with no collapse or prune:
    /// the reference every timed result must equal.
    pub fn reference(&self) -> CampaignSpec {
        CampaignSpec {
            engine: Engine::Lockstep,
            collapse: Collapse::Off,
            prune: Prune::Off,
            threads: 2,
            ..self.clone()
        }
    }
}

/// Deterministic work counts of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub zones: u64,
    pub faults: u64,
    pub artifact_bytes: u64,
    pub cycles_simulated: u64,
    pub cycles_skipped: u64,
    pub faults_simulated: u64,
    pub faults_collapsed: u64,
    pub faults_pruned: u64,
    pub ppsfp_batches: u64,
    pub ppsfp_words: u64,
    pub ppsfp_lanes: u64,
    pub trace_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.zones += o.zones;
        self.faults += o.faults;
        self.artifact_bytes += o.artifact_bytes;
        self.cycles_simulated += o.cycles_simulated;
        self.cycles_skipped += o.cycles_skipped;
        self.faults_simulated += o.faults_simulated;
        self.faults_collapsed += o.faults_collapsed;
        self.faults_pruned += o.faults_pruned;
        self.ppsfp_batches += o.ppsfp_batches;
        self.ppsfp_words += o.ppsfp_words;
        self.ppsfp_lanes += o.ppsfp_lanes;
        self.trace_bytes += o.trace_bytes;
    }
}

/// Lockstep references, computed once per campaign spec.
#[derive(Default)]
pub struct References(BTreeMap<String, CampaignResult>);

impl References {
    pub fn get(&mut self, key: &str, spec: &CampaignSpec) -> &CampaignResult {
        self.0
            .entry(key.to_owned())
            .or_insert_with(|| run_local(&spec.reference(), &mut Spans::new(false), false).result)
    }
}

pub struct LocalRun {
    pub result: CampaignResult,
    /// Elaboration to `analyze`.
    pub total_ms: f64,
    /// Elaboration to prepared artifacts: the point from which verdicts
    /// are produced.
    pub prepared_ms: f64,
    pub counts: Counts,
}

/// Runs one campaign. With `probe` (and spans on), also times the parts of
/// artifact preparation and the trace encoder by their own public calls,
/// after the campaign and outside its span.
pub fn run_local(spec: &CampaignSpec, spans: &mut Spans, probe: bool) -> LocalRun {
    let t0 = Instant::now();
    let root = spans.enter("campaign");
    let (netlist, config) = match &spec.design {
        Design::Example(e) => spans
            .time("elaborate", || e.build())
            .expect("bundled examples elaborate"),
        Design::Verilog(src) => (
            spans
                .time("netlist.parse_verilog", || parse_verilog(src))
                .expect("generated Verilog parses"),
            ExtractConfig::default(),
        ),
    };
    let zones = spans.time("core.extract_zones", || extract_zones(&netlist, &config));
    let workload = spans.time("serve.random_workload", || {
        random_workload(&netlist, spec.seed, spec.cycles)
    });
    let env = spans.time("faultsim.environment", || {
        EnvironmentBuilder::new(&netlist, &zones, &workload)
            .alarms_matching("alarm")
            .build()
    });
    let profile = spans.time("faultsim.profile", || OperationalProfile::collect(&env));
    let faults = spans.time("faultsim.fault_list", || match spec.mix {
        FaultMix::Default => generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                seed: spec.seed,
                ..FaultListConfig::default()
            },
        ),
        FaultMix::ExhaustiveStuck => exhaustive_stuck(&netlist),
    });
    assert!(
        !faults.is_empty(),
        "the workload's designs have injectable faults"
    );
    let artifacts = spans.time("faultsim.prepare", || {
        Arc::new(CampaignArtifacts::prepare(
            &env,
            &faults,
            spec.engine,
            CHECKPOINT_INTERVAL,
            spec.collapse,
            spec.prune,
        ))
    });
    let prepared_ms = t0.elapsed().as_secs_f64() * 1e3;
    let campaign = campaign(spec, &env, &faults).artifacts(Arc::clone(&artifacts));
    let stats = campaign.stats();
    let result = spans.time("faultsim.simulate", || campaign.run());
    let analysis = spans.time("faultsim.analyze", || analyze(&faults, &result, &profile));
    black_box(analysis);
    spans.exit(root);
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut counts = Counts {
        zones: zones.len() as u64,
        faults: result.outcomes.len() as u64,
        artifact_bytes: artifacts.approx_bytes() as u64,
        cycles_simulated: stats.cycles_simulated(),
        cycles_skipped: stats.cycles_skipped(),
        faults_simulated: stats.faults_done() as u64,
        faults_collapsed: stats.faults_collapsed() as u64,
        faults_pruned: stats.faults_pruned() as u64,
        ppsfp_batches: stats.ppsfp_batches(),
        ppsfp_words: stats.ppsfp_words(),
        ppsfp_lanes: stats.ppsfp_lanes(),
        trace_bytes: 0,
    };
    if probe && spans.is_on() {
        probe_prepare_parts(&env, spans);
        counts.trace_bytes = probe_trace(spec, &env, &faults, &artifacts, &result, spans);
    }
    LocalRun {
        result,
        total_ms,
        prepared_ms,
        counts,
    }
}

fn campaign<'a>(
    spec: &CampaignSpec,
    env: &'a Environment<'a>,
    faults: &'a [Fault],
) -> Campaign<'a> {
    Campaign::new(env, faults)
        .threads(spec.threads)
        .seed(spec.seed)
        .engine(spec.engine)
        .checkpoint_interval(CHECKPOINT_INTERVAL)
        .collapsing(spec.collapse)
        .pruning(spec.prune)
}

/// Both stuck-at polarities on every driven, non-constant net.
pub fn exhaustive_stuck(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for (i, net) in netlist.nets().iter().enumerate() {
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
                inject_cycle: 0,
                label: format!("{}-sa{value}", net.name),
            });
        }
    }
    faults
}

/// Times the parts of `CampaignArtifacts::prepare`, each by its own call.
fn probe_prepare_parts(env: &Environment<'_>, spans: &mut Spans) {
    let topo = spans
        .time("accel.topology", || Topology::build(env.netlist))
        .expect("levelizable netlist");
    let golden = spans.time("accel.golden", || {
        GoldenTrace::record(env.netlist, env.workload, CHECKPOINT_INTERVAL)
    });
    black_box(golden.expect("levelizable netlist"));
    let monitored: Vec<NetId> = env
        .functional_outputs
        .iter()
        .chain(&env.alarm_nets)
        .chain(&env.observation_nets)
        .copied()
        .collect();
    black_box(spans.time("static.analyze", || {
        TestabilityAnalysis::analyze(env.netlist, &topo, &monitored)
    }));
    black_box(spans.time("faultsim.collapser", || FaultCollapser::build(env)));
}

/// A `Write` into shared memory, so the trace stays readable after the
/// sink's writer thread drops its handle.
#[derive(Clone, Default)]
struct MemWriter(Arc<Mutex<Vec<u8>>>);

impl Write for MemWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The server's `/trace` normalization: timing fields zeroed, span and
/// phase records dropped, so the encoded bytes are a function of the
/// campaign alone.
fn normalize(ev: TraceEvent) -> Option<TraceEvent> {
    match ev {
        TraceEvent::Fault(mut r) => {
            r.nanos = 0;
            r.shard = None;
            Some(TraceEvent::Fault(r))
        }
        TraceEvent::Span { .. } | TraceEvent::Phase { .. } => None,
        TraceEvent::End {
            faults,
            no_effect,
            safe_detected,
            dangerous_detected,
            dangerous_undetected,
            dc,
            sff,
            elapsed_nanos: _,
        } => Some(TraceEvent::End {
            faults,
            no_effect,
            safe_detected,
            dangerous_detected,
            dangerous_undetected,
            dc,
            sff,
            elapsed_nanos: 0,
        }),
        TraceEvent::Meta {
            threads: _,
            design,
            faults,
            cycles,
            seed,
            accel,
            collapse,
        } => Some(TraceEvent::Meta {
            threads: 0,
            design,
            faults,
            cycles,
            seed,
            accel,
            collapse,
        }),
    }
}

/// Re-runs the campaign on the same artifacts with an observer streaming
/// its normalized JSONL trace into memory, in an `obs.trace` span. Returns
/// the trace bytes; the observed result must equal the plain one.
fn probe_trace(
    spec: &CampaignSpec,
    env: &Environment<'_>,
    faults: &[Fault],
    artifacts: &Arc<CampaignArtifacts>,
    plain: &CampaignResult,
    spans: &mut Spans,
) -> u64 {
    let buf = MemWriter::default();
    let open = spans.enter("obs.trace");
    let sink = TraceSink::to_writer_mapped(Box::new(buf.clone()), Box::new(normalize));
    let observer = Observer::with_sink(sink);
    let result = campaign(spec, env, faults)
        .artifacts(Arc::clone(artifacts))
        .observe(&observer)
        .run();
    observer.finish().expect("in-memory trace write");
    spans.exit(open);
    assert!(
        &result == plain,
        "an observed campaign must equal the plain one"
    );
    let bytes = buf.0.lock().expect("trace buffer lock").len() as u64;
    bytes
}
