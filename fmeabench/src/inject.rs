//! The local `inject` workloads: campaigns run one after another, each
//! making the same public calls as `socfmea inject --example <design>
//! --cycles 200 --threads <n>`: 2 threads on `inject-mixed`, 1 on
//! `inject-stuck`.
//!
//! Campaigns cycle over a pool of seeds derived from the workload seed:
//! 20 fault lists on `inject-mixed`, two stimuli on `inject-stuck`
//! (whose exhaustive list does not depend on the seed). Nothing is reused
//! between campaigns. The pool bounds the lockstep references a run must
//! compute (0.5–0.9 s each on `inject-mixed`, 1.5–3 s on `inject-stuck`), so
//! a faster program runs more campaigns without a longer correctness pass.

use crate::layers::{self, job_body, rename_module};
use crate::pipeline::{run_local, CampaignSpec, Counts, Design, FaultMix, References};
use crate::serve::{self, ServeJob, CLIENTS};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::{derive_seed, peak_rss_mb, seed_pool, Args, Report, Workload};
use socfmea_faultsim::{CampaignResult, Collapse, Engine, Prune};
use socfmea_serve::{DesignRef, Example};
use std::collections::BTreeMap;
use std::time::Instant;

/// Campaign threads on `inject-stuck`. Its campaigns take about 60 ms; on
/// two threads a stall of either core stalls the campaign, and the tail of
/// the run read 1.3 to 1.8 times its p50 from run to run on a 2-core host
/// (one thread: 1.1 to 1.2).
const STUCK_THREADS: usize = 1;
/// Fewest timed campaigns, so the tail has ten samples beyond it.
const MIN_CAMPAIGNS: usize = 11;
/// Warm-up campaigns of the set-up, cycling over the head of the pool;
/// `setup_s` is their median. About six seconds of set-up on `inject-mixed`
/// (half the pool) and three on `inject-stuck`, so the median rests neither
/// on a few fault lists nor on a moment of the host.
fn warmups(w: Workload) -> usize {
    match w {
        Workload::InjectMixed => 10,
        _ => 32,
    }
}
/// Campaigns per traced pass.
const TRACED_OPS: usize = 8;
/// Campaigns per traced pass whose served form also goes through the
/// server's inner calls (spec parse, resolve) by direct call.
const INNER_PROBE_OPS: usize = 2;
/// Served jobs per client per traced pass.
const SERVED_JOBS_PER_CLIENT: usize = 6;

/// Seeds per run. On `inject-mixed` campaign times cluster by fault list
/// (lists with a costly fault form a slow mode); 20 lists keep the run's
/// p50 and tail from resting on a few of them, while their lockstep
/// references stay a small share of the run.
fn pool_size(w: Workload) -> usize {
    match w {
        Workload::InjectMixed => 20,
        _ => 2,
    }
}

fn spec(w: Workload, seed: u64) -> CampaignSpec {
    match w {
        Workload::InjectMixed => layers::inject_mixed_spec(seed),
        _ => CampaignSpec {
            design: Design::Example(Example::Mcu),
            seed,
            cycles: 200,
            mix: FaultMix::ExhaustiveStuck,
            engine: Engine::Auto,
            collapse: Collapse::Dictionary,
            prune: Prune::Static,
            threads: STUCK_THREADS,
        },
    }
}

/// Names the lockstep reference of a campaign: the result depends on the
/// design, seed, cycles and fault list only.
fn ref_key(spec: &CampaignSpec) -> String {
    let Design::Example(e) = &spec.design else {
        unreachable!("inject workloads run bundled examples")
    };
    format!("{}/{}/{}/{:?}", e.name(), spec.seed, spec.cycles, spec.mix)
}

pub fn run(args: &Args, report: &mut Report) {
    report.fact("campaign_threads", spec(args.workload, 0).threads);
    report.fact("seed_pool", pool_size(args.workload));
    if args.trace {
        traced(args, report);
    } else {
        report.fact("clients", 1);
        report.fact("workers", 0);
        untraced(args, report);
    }
}

/// Checks `result` against the lockstep reference of its campaign.
fn check(spec: &CampaignSpec, result: &CampaignResult, refs: &mut References, report: &mut Report) {
    let key = ref_key(spec);
    if refs.get(&key, spec) != result {
        report.mismatch(format!("campaign {key} differs from the lockstep result"));
    }
}

fn untraced(args: &Args, report: &mut Report) {
    let w = args.workload;
    let mut off = Spans::new(false);
    // first result per seed; every later campaign of that seed must equal it
    let mut firsts: BTreeMap<u64, CampaignResult> = BTreeMap::new();
    let mut keep = |seed: u64, result: CampaignResult, report: &mut Report| match firsts.get(&seed)
    {
        Some(first) if *first != result => report.mismatch(format!(
            "seed {seed}: a repeated campaign gave another result"
        )),
        Some(_) => {}
        None => {
            firsts.insert(seed, result);
        }
    };
    // set-up, repeated: derive a seed and run a warm-up campaign on it
    let mut setup = Samples::default();
    for k in 0..warmups(w) {
        let t0 = Instant::now();
        let seed = derive_seed(args.seed, k % pool_size(w));
        let run = run_local(&spec(w, seed), &mut off, false);
        setup.push(t0.elapsed().as_secs_f64());
        keep(seed, run.result, report);
    }
    let pool = seed_pool(args.seed, pool_size(w));

    let (mut campaign, mut first) = (Samples::default(), Samples::default());
    let mut faults = 0u64;
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < args.seconds || i < MIN_CAMPAIGNS {
        let seed = pool[i % pool.len()];
        let run = run_local(&spec(w, seed), &mut off, false);
        campaign.push(run.total_ms);
        first.push(run.prepared_ms);
        faults += run.counts.faults;
        keep(seed, run.result, report);
        i += 1;
    }
    let wall = t0.elapsed().as_secs_f64();

    let mut refs = References::default();
    for (&seed, result) in &firsts {
        check(&spec(w, seed), result, &mut refs, report);
    }
    report.attempted = i as u64;
    let tail = campaign.tail();
    report.fact("campaigns", i);
    report.fact(
        "campaign_ms.tail",
        format!("p{} of {}", tail.percentile, tail.n),
    );
    report.fact("job_ms.tail", format!("p{} of {}", tail.percentile, tail.n));
    report.fact("setup_repeats", warmups(w));
    report.metric("setup_s", setup.p50(), "s");
    report.metric("faults_per_s", faults as f64 / wall, "1/s");
    // a local job is one campaign: job_ms and campaign_ms share samples
    report.metric("jobs_per_s", i as f64 / wall, "1/s");
    report.metric("campaign_ms.p50", campaign.p50(), "ms");
    report.metric("campaign_ms.tail", tail.value, "ms");
    report.metric("job_ms.p50", campaign.p50(), "ms");
    report.metric("job_ms.tail", tail.value, "ms");
    report.metric("first_record_ms.p50", first.p50(), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The served form of a local campaign: the same design, seed, cycles and
/// settings as a job, with the server's default fault list and one
/// campaign thread.
fn served(spec: &CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        mix: FaultMix::Default,
        threads: serve::JOB_THREADS,
        ..spec.clone()
    }
}

fn example_of(spec: &CampaignSpec) -> Example {
    match spec.design {
        Design::Example(e) => e,
        Design::Verilog(_) => unreachable!("inject workloads run bundled examples"),
    }
}

/// Times the server's inner calls on the served form of one campaign,
/// posted both by example name and as inline Verilog.
fn probe_inner_calls(spec: &CampaignSpec, spans: &mut Spans) {
    let example = example_of(spec);
    let served = served(spec);
    layers::probe_serve_calls(
        &job_body(&served, "local", DesignRef::Example(example.name().into())),
        spans,
    );
    let (netlist, _) = example.build().expect("bundled examples elaborate");
    let dump = socfmea_netlist::write_verilog(&netlist);
    let src = rename_module(&dump, netlist.name(), &format!("{}_inline", netlist.name()));
    layers::probe_serve_calls(&job_body(&served, "local", DesignRef::Verilog(src)), spans);
}

fn traced(args: &Args, report: &mut Report) {
    let w = args.workload;
    let pool = seed_pool(args.seed, pool_size(w).min(TRACED_OPS));
    let mut refs = References::default();
    let mut off = Spans::new(false);
    // references first, so no lockstep run lands between timed campaigns
    for &seed in &pool {
        refs.get(&ref_key(&spec(w, seed)), &spec(w, seed));
    }
    let warm = run_local(&spec(w, pool[0]), &mut off, false);
    check(&spec(w, pool[0]), &warm.result, &mut refs, report);

    let mut spans = Spans::new(true);
    // each campaign runs once untraced and once traced, in alternating
    // order, so both see the same preceding work; their p50s give the
    // tracing overhead
    let (mut untraced, mut traced_ms) = (Samples::default(), Samples::default());
    let mut client_records = Vec::new();
    let mut passes: Vec<layers::PassCounts> = Vec::new();
    for pass in [2u64, 3] {
        let mut counts = Counts::default();
        for k in 0..TRACED_OPS {
            let s = spec(w, pool[k % pool.len()]);
            for traced in [k % 2 == 0, k % 2 == 1] {
                if traced {
                    spans.set_op(pass * 1000 + k as u64);
                    let run = run_local(&s, &mut spans, true);
                    traced_ms.push(run.total_ms);
                    counts.add(&run.counts);
                    check(&s, &run.result, &mut refs, report);
                } else {
                    let run = run_local(&s, &mut off, false);
                    untraced.push(run.total_ms);
                    check(&s, &run.result, &mut refs, report);
                }
            }
            if k < INNER_PROBE_OPS {
                probe_inner_calls(&s, &mut spans);
            }
        }
        spans.set_op(pass * 1000 + 999);
        let routing = layers::routing_table(pool[0], &mut spans, report);

        // the campaigns' served form, on a fresh server per pass so both
        // passes see the same cache misses
        let server = serve::start_server();
        let addr = server.addr().to_string();
        let next = |c: usize, j: usize| {
            (j < SERVED_JOBS_PER_CLIENT).then(|| {
                // at most four distinct specs, each posted several times
                let s = served(&spec(w, pool[(j * CLIENTS + c) % pool.len().min(4)]));
                let name = example_of(&s).name();
                ServeJob {
                    body: job_body(&s, &format!("client-{c}"), DesignRef::Example(name.into())),
                    key: ref_key(&s),
                    spec: s,
                }
            })
        };
        let (records, serve_counts) = serve::run_pass(&addr, &next, &mut spans, pass * 1000 + 500);
        serve::stop_server(server);
        client_records.extend(records);
        passes.push((counts, serve_counts, routing));
    }
    serve::check_records(&client_records, &mut refs, report);
    report.attempted = (1 + 4 * TRACED_OPS + client_records.len()) as u64;
    report.fact("clients", CLIENTS);
    report.fact("workers", serve::WORKERS);
    report.fact("served_jobs_per_pass", SERVED_JOBS_PER_CLIENT * CLIENTS);

    layers::emit_traced(
        args,
        report,
        &spans,
        passes,
        &client_records,
        TRACED_OPS,
        &untraced,
        &traced_ms,
    );
}
