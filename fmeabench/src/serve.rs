//! Served jobs: closed-loop clients against an in-process `Server`, and the
//! `serve-mixed` workload.
//!
//! Three jobs in four name `mcu` or `mcu-single` with a seed from a pool of
//! eight: after set-up they hit the design and spec caches (the reads path).
//! One job in four posts the MCU's Verilog dump under a module name no
//! earlier job used: it misses both caches (the builds path).

use crate::layers::{self, job_body, rename_module};
use crate::pipeline::{run_local, CampaignSpec, Counts, Design, FaultMix, References};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::{derive_seed, peak_rss_mb, seed_pool, Args, Report};
use socfmea_faultsim::{CampaignResult, Collapse, Engine, Prune};
use socfmea_obs::json;
use socfmea_serve::{Client, DesignRef, Example, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Campaign threads per served job.
pub const JOB_THREADS: usize = 1;
const SEEDS: usize = 8;
const CYCLES: usize = 48;
const WARM_EXAMPLES: [Example; 2] = [Example::Mcu, Example::McuSingle];
/// Jobs per client in one traced pass.
const TRACED_JOBS_PER_CLIENT: usize = 12;
const SETUP_REPEATS: usize = 9;
/// Timed jobs after which `peak_rss_mb` is read. The server keeps every
/// job and caches every cold design, so its memory grows with the jobs
/// served; reading it at a fixed count keeps a faster program from
/// reading as a larger one.
const RSS_AFTER_JOBS: usize = 200;

/// The terminal summary of a served job: fault count, DC and SFF bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub faults: u64,
    pub dc: Option<u64>,
    pub sff: Option<u64>,
}

impl Summary {
    pub fn of(result: &CampaignResult) -> Summary {
        Summary {
            faults: result.outcomes.len() as u64,
            dc: result.measured_dc().map(f64::to_bits),
            sff: result.measured_sff().map(f64::to_bits),
        }
    }

    /// From the `end` record of a `/trace` stream.
    fn from_trace(trace: &[u8]) -> Option<Summary> {
        let text = std::str::from_utf8(trace).ok()?;
        let line = text.lines().rev().find(|l| l.contains("\"ev\":\"end\""))?;
        let doc = json::parse(line).ok()?;
        let bits = |key| match doc.get(key)? {
            json::Value::Null => Some(None),
            v => v.as_f64().map(|x| Some(x.to_bits())),
        };
        Some(Summary {
            faults: doc.get("faults")?.as_u64()?,
            dc: bits("dc")?,
            sff: bits("sff")?,
        })
    }
}

/// One job to post: its body and what campaign it asks for.
pub struct ServeJob {
    pub body: String,
    pub spec: CampaignSpec,
    /// Identifies repeated specs, whose traces must be byte-identical.
    pub key: String,
}

/// What a client saw of one job.
pub struct JobRecord {
    pub key: String,
    pub spec: CampaignSpec,
    pub submit_ms: f64,
    pub wait_ms: f64,
    pub stream_ms: f64,
    pub first_ms: f64,
    pub job_ms: f64,
    pub trace_bytes: usize,
    pub trace_hash: u64,
    pub summary: Option<Summary>,
    pub rejected: bool,
    pub error: Option<String>,
}

/// Timestamps the first streamed byte and keeps the stream.
struct Capture {
    t0: Instant,
    first: Option<Duration>,
    buf: Vec<u8>,
}

impl Write for Capture {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.first.is_none() && !data.is_empty() {
            self.first = Some(self.t0.elapsed());
        }
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn start_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        default_threads: JOB_THREADS,
        ..ServerConfig::default()
    })
    .expect("bind a localhost port")
}

pub fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// POSTs one job, then drains its `/trace` stream.
pub fn run_job(addr: &str, job: &ServeJob, spans: &mut Spans) -> JobRecord {
    let client = Client::new(addr);
    let mut record = JobRecord {
        key: job.key.clone(),
        spec: job.spec.clone(),
        submit_ms: 0.0,
        wait_ms: 0.0,
        stream_ms: 0.0,
        first_ms: 0.0,
        job_ms: 0.0,
        trace_bytes: 0,
        trace_hash: 0,
        summary: None,
        rejected: false,
        error: None,
    };
    let root = spans.enter("job");
    let t0 = Instant::now();
    let resp = spans.time("serve.submit", || client.submit_raw(&job.body));
    let accepted = t0.elapsed();
    let id = match resp {
        Ok(r) if r.status == 202 => json::parse(&r.text())
            .ok()
            .and_then(|d| d.get("job").and_then(|v| v.as_str()).map(str::to_owned)),
        Ok(r) => {
            record.rejected = r.status == 429;
            record.error = Some(format!("POST /v1/jobs answered {}: {}", r.status, r.text()));
            None
        }
        Err(e) => {
            record.error = Some(format!("POST /v1/jobs: {e}"));
            None
        }
    };
    let Some(id) = id else {
        spans.exit(root);
        record
            .error
            .get_or_insert_with(|| "202 without a job id".into());
        return record;
    };
    let mut capture = Capture {
        t0,
        first: None,
        buf: Vec::new(),
    };
    let status = spans.time("serve.watch", || client.watch(&id, &mut capture));
    let end = t0.elapsed();
    spans.exit(root);
    let first = capture.first.unwrap_or(end);
    record.submit_ms = ms(accepted);
    record.first_ms = ms(first);
    record.wait_ms = ms(first.saturating_sub(accepted));
    record.stream_ms = ms(end.saturating_sub(first));
    record.job_ms = ms(end);
    match status {
        Ok(200) => {}
        Ok(s) => record.error = Some(format!("GET trace answered {s}")),
        Err(e) => record.error = Some(format!("GET trace: {e}")),
    }
    record.trace_bytes = capture.buf.len();
    record.trace_hash = socfmea_serve::design::fnv1a64(&capture.buf);
    record.summary = Summary::from_trace(&capture.buf);
    if record.error.is_none() && record.summary.is_none() {
        record.error = Some("trace ended without an `end` record".into());
    }
    record
}

/// Runs closed-loop clients: client `c` posts `next(c, j)` for j = 0, 1, …
/// until it returns `None` or the deadline passes. Each client records its
/// own spans; they are merged into `spans`.
pub fn run_clients(
    addr: &str,
    next: &(dyn Fn(usize, usize) -> Option<ServeJob> + Sync),
    deadline: Option<Instant>,
    spans: &mut Spans,
    op_base: u64,
) -> Vec<JobRecord> {
    let (t0, on) = (spans.origin(), spans.is_on());
    let per_client: Vec<(Vec<JobRecord>, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut own = Spans::starting_at(on, t0);
                    let mut records = Vec::new();
                    for j in 0.. {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let Some(job) = next(c, j) else { break };
                        own.set_op(op_base + (j * CLIENTS + c) as u64);
                        records.push(run_job(addr, &job, &mut own));
                    }
                    (records, own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Vec::new();
    for (records, own) in per_client {
        out.extend(records);
        spans.merge(own);
    }
    out
}

/// Counters of the server's metrics registry.
fn counters(addr: &str) -> BTreeMap<String, u64> {
    let resp = Client::new(addr)
        .metrics_json()
        .expect("GET /v1/metrics?format=json");
    let doc = json::parse(&resp.text()).expect("metrics snapshot is JSON");
    let mut out = BTreeMap::new();
    if let Some(json::Value::Obj(members)) = doc.get("counters") {
        for (k, v) in members {
            out.insert(k.clone(), v.as_u64().unwrap_or(0));
        }
    }
    out
}

/// Client-visible serve metrics and cache counts of one traced pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeCounts {
    pub jobs: u64,
    pub rejected: u64,
    pub trace_bytes: u64,
    pub cache: [u64; 4],
}

const CACHE_COUNTERS: [&str; 4] = [
    "serve.cache.design.hit",
    "serve.cache.design.miss",
    "serve.cache.spec.hit",
    "serve.cache.spec.miss",
];

/// Runs one pass of jobs and returns the records with the pass's counts
/// (cache counters as deltas over the pass).
pub fn run_pass(
    addr: &str,
    next: &(dyn Fn(usize, usize) -> Option<ServeJob> + Sync),
    spans: &mut Spans,
    op_base: u64,
) -> (Vec<JobRecord>, ServeCounts) {
    let before = counters(addr);
    let records = run_clients(addr, next, None, spans, op_base);
    let after = counters(addr);
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let counts = ServeCounts {
        jobs: records.len() as u64,
        rejected: records.iter().filter(|r| r.rejected).count() as u64,
        trace_bytes: records.iter().map(|r| r.trace_bytes as u64).sum(),
        cache: CACHE_COUNTERS.map(delta),
    };
    (records, counts)
}

/// Emits the client-visible serve metrics of the traced passes.
pub fn emit_client_metrics(records: &[JobRecord], counts: &ServeCounts, report: &mut Report) {
    let (mut submit, mut wait, mut stream) =
        (Samples::default(), Samples::default(), Samples::default());
    for r in records.iter().filter(|r| r.error.is_none()) {
        submit.push(r.submit_ms);
        wait.push(r.wait_ms);
        stream.push(r.stream_ms);
    }
    let tail = submit.tail();
    report.fact(
        "serve.submit_ms.tail",
        format!("p{} of {} jobs", tail.percentile, tail.n),
    );
    report.metric("serve.submit_ms.p50", submit.p50(), "ms");
    report.metric("serve.submit_ms.tail", tail.value, "ms");
    report.metric("serve.wait_ms.p50", wait.p50(), "ms");
    report.metric("serve.stream_ms.p50", stream.p50(), "ms");
    report.metric(
        "serve.trace_bytes_per_job",
        counts.trace_bytes as f64 / counts.jobs as f64,
        "bytes",
    );
    report.metric("serve.rejected", counts.rejected as f64, "count");
    for (name, value) in CACHE_COUNTERS.iter().zip(counts.cache) {
        report.metric(*name, value as f64, "count");
    }
    let [_, _, hit, miss] = counts.cache;
    report.metric(
        "serve.cache.spec.hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
        "ratio",
    );
}

/// Checks every served job: accepted and streamed, its summary equal to
/// the lockstep result of the same campaign, and its trace byte-identical
/// to every other job of the same spec.
pub fn check_records<'a>(
    records: impl IntoIterator<Item = &'a JobRecord>,
    refs: &mut References,
    report: &mut Report,
) {
    let mut traces: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for r in records {
        if let Some(e) = &r.error {
            report.failed += 1;
            eprintln!("fmeabench: job {} failed: {e}", r.key);
            continue;
        }
        let want = Summary::of(refs.get(&r.key, &r.spec));
        if r.summary != Some(want) {
            report.mismatch(format!(
                "job {}: served summary {:?} differs from lockstep {want:?}",
                r.key, r.summary
            ));
        }
        let first = *traces
            .entry(r.key.as_str())
            .or_insert((r.trace_hash, r.trace_bytes));
        if first != (r.trace_hash, r.trace_bytes) {
            report.mismatch(format!(
                "job {}: repeated spec streamed a different trace",
                r.key
            ));
        }
    }
}

/// The serve-mixed traffic: warm example jobs and cold Verilog jobs.
struct Traffic {
    seed: u64,
    pool: Vec<u64>,
    mcu_name: String,
    mcu_dump: String,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let (netlist, _) = Example::Mcu.build().expect("bundled examples elaborate");
        Traffic {
            seed,
            pool: seed_pool(seed, SEEDS),
            mcu_name: netlist.name().to_owned(),
            mcu_dump: socfmea_netlist::write_verilog(&netlist),
        }
    }

    fn spec(design: Design, seed: u64) -> CampaignSpec {
        CampaignSpec {
            design,
            seed,
            cycles: CYCLES,
            mix: FaultMix::Default,
            engine: Engine::Auto,
            collapse: Collapse::Off,
            prune: Prune::Off,
            threads: JOB_THREADS,
        }
    }

    fn warm(&self, client: usize, example: Example, seed: u64) -> ServeJob {
        let spec = Traffic::spec(Design::Example(example), seed);
        ServeJob {
            body: job_body(
                &spec,
                &format!("client-{client}"),
                DesignRef::Example(example.name().into()),
            ),
            key: format!("{}/{seed}", example.name()),
            spec,
        }
    }

    /// Job `j` of client `c` in pass `pass`: every fourth job of each
    /// client is cold. The cold module name is unique per (pass, client,
    /// job) and of fixed width, so passes stream traces of equal length.
    fn job(&self, pass: u32, c: usize, j: usize) -> ServeJob {
        // the mix depends on the job's position only, so every pass posts
        // the same specs
        let r = derive_seed(self.seed ^ 0x5e7e, j * CLIENTS + c);
        let seed = self.pool[(r >> 1) as usize % SEEDS];
        if j % 4 == 3 {
            let module = format!("mcu_cold_p{pass}_c{c}_j{j:05}");
            let src: Arc<str> = rename_module(&self.mcu_dump, &self.mcu_name, &module).into();
            let spec = Traffic::spec(Design::Verilog(Arc::clone(&src)), seed);
            ServeJob {
                body: job_body(
                    &spec,
                    &format!("client-{c}"),
                    DesignRef::Verilog(src.to_string()),
                ),
                key: format!("{module}/{seed}"),
                spec,
            }
        } else {
            self.warm(c, WARM_EXAMPLES[(r & 1) as usize], seed)
        }
    }

    /// Submits every warm spec once (split over the clients); returns the
    /// records.
    fn warm_all(&self, addr: &str, spans: &mut Spans) -> Vec<JobRecord> {
        let warm: Vec<(Example, u64)> = WARM_EXAMPLES
            .iter()
            .flat_map(|&e| self.pool.iter().map(move |&s| (e, s)))
            .collect();
        let next = |c: usize, j: usize| warm.get(j * CLIENTS + c).map(|&(e, s)| self.warm(c, e, s));
        run_clients(addr, &next, None, spans, 0)
    }
}

pub fn run(args: &Args, report: &mut Report) {
    report.fact("clients", CLIENTS);
    report.fact("workers", WORKERS);
    report.fact("campaign_threads_per_job", JOB_THREADS);
    report.fact("seed_pool", SEEDS);
    if args.trace {
        traced(args, report);
    } else {
        untraced(args, report);
    }
}

fn untraced(args: &Args, report: &mut Report) {
    let mut off = Spans::new(false);
    let mut refs = References::default();
    // set-up, repeated: generate the inputs, start a server, submit each
    // warm spec once; keep the last server
    let mut setup = Samples::default();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _, _)) = kept.take() {
            stop_server(server);
        }
        let t0 = Instant::now();
        let traffic = Traffic::new(args.seed);
        let server = start_server();
        let warm = traffic.warm_all(&server.addr().to_string(), &mut off);
        setup.push(t0.elapsed().as_secs_f64());
        kept = Some((server, traffic, warm));
    }
    let (server, traffic, warm) = kept.expect("set-up ran");
    let addr = server.addr().to_string();

    // a client asks for its next job once its last one has ended
    let asked = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let t0 = Instant::now();
    let next = |c: usize, j: usize| {
        if asked.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_JOBS + CLIENTS {
            rss.get_or_init(peak_rss_mb);
        }
        Some(traffic.job(0, c, j))
    };
    let records = run_clients(&addr, &next, Some(t0 + args.seconds), &mut off, 0);
    let wall = t0.elapsed().as_secs_f64();
    let rss_jobs = if rss.get().is_some() {
        RSS_AFTER_JOBS
    } else {
        records.len()
    };
    let rss = *rss.get_or_init(peak_rss_mb);
    stop_server(server);

    let (mut job, mut campaign, mut first) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut faults = 0u64;
    for r in records.iter().filter(|r| r.error.is_none()) {
        job.push(r.job_ms);
        campaign.push(r.job_ms - r.submit_ms);
        first.push(r.first_ms);
        faults += r.summary.map_or(0, |s| s.faults);
    }
    report.attempted = records.len() as u64;
    let mut all = warm;
    all.extend(records);
    check_records(&all, &mut refs, report);

    let ok = job.len() as f64;
    report.metric("setup_s", setup.p50(), "s");
    report.metric("faults_per_s", faults as f64 / wall, "1/s");
    report.metric("jobs_per_s", ok / wall, "1/s");
    let (jt, ct) = (job.tail(), campaign.tail());
    report.fact("jobs", job.len());
    report.fact("job_ms.tail", format!("p{} of {}", jt.percentile, jt.n));
    report.fact(
        "campaign_ms.tail",
        format!("p{} of {}", ct.percentile, ct.n),
    );
    report.fact("setup_repeats", SETUP_REPEATS);
    report.fact("peak_rss_mb.after_jobs", rss_jobs);
    report.metric("job_ms.p50", job.p50(), "ms");
    report.metric("job_ms.tail", jt.value, "ms");
    // a served job's campaign as its client waits for it: 202 to end of stream
    report.metric("campaign_ms.p50", campaign.p50(), "ms");
    report.metric("campaign_ms.tail", ct.value, "ms");
    report.metric("first_record_ms.p50", first.p50(), "ms");
    report.metric("peak_rss_mb", rss, "MB");
}

fn traced(args: &Args, report: &mut Report) {
    let mut refs = References::default();
    let traffic = Traffic::new(args.seed);
    let server = start_server();
    let addr = server.addr().to_string();
    let mut off = Spans::new(false);
    let mut all = traffic.warm_all(&addr, &mut off);
    let plan = |pass: u32| {
        let traffic = &traffic;
        move |c: usize, j: usize| (j < TRACED_JOBS_PER_CLIENT).then(|| traffic.job(pass, c, j))
    };

    // each traced pass follows an untraced one; their p50s give the
    // tracing overhead
    let mut spans = Spans::new(true);
    let (mut untraced, mut traced_ms) = (Samples::default(), Samples::default());
    let mut client_records = Vec::new();
    let mut passes: Vec<layers::PassCounts> = Vec::new();
    for pass in [2u32, 3] {
        let (a, _) = run_pass(&addr, &plan(pass + 2), &mut off, 0);
        a.iter().for_each(|r| untraced.push(r.job_ms));
        all.extend(a);

        let op_base = u64::from(pass) * 1000;
        let (records, serve_counts) = run_pass(&addr, &plan(pass), &mut spans, op_base);
        records.iter().for_each(|r| traced_ms.push(r.job_ms));
        // after the pass, so the probes do not load the server while it is
        // timed: the server's inner calls on each job's own body, and a
        // local replay of each job's campaign
        let mut counts = Counts::default();
        for c in 0..CLIENTS {
            for j in 0..TRACED_JOBS_PER_CLIENT {
                spans.set_op(op_base + (j * CLIENTS + c) as u64);
                let job = traffic.job(pass, c, j);
                layers::probe_serve_calls(&job.body, &mut spans);
                let run = run_local(&job.spec, &mut spans, true);
                counts.add(&run.counts);
            }
        }
        spans.set_op(op_base + 999);
        let routing = layers::routing_table(traffic.pool[0], &mut spans, report);
        client_records.extend(records);
        passes.push((counts, serve_counts, routing));
    }
    stop_server(server);
    report.attempted = (all.len() + client_records.len()) as u64;
    check_records(all.iter().chain(&client_records), &mut refs, report);

    let ops = TRACED_JOBS_PER_CLIENT * CLIENTS;
    layers::emit_traced(
        args,
        report,
        &spans,
        passes,
        &client_records,
        ops,
        &untraced,
        &traced_ms,
    );
}
