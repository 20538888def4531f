//! Structured tracing, metrics, and live campaign telemetry.
//!
//! The paper's methodology lives or dies on evidence: a claimed DC/SFF is
//! only auditable when every injected fault leaves a record that an
//! assessor can re-aggregate. This crate is that evidence layer for the
//! whole pipeline — std-only (no dependencies) so every workspace crate
//! can use it without cycles:
//!
//! * [`observer`] — the [`Observer`] handle instrumented code receives:
//!   hierarchical timed [`Span`] guards, named phases, and access to the
//!   metrics registry and trace sink,
//! * [`metrics`] — a thread-safe [`Registry`] of named [`Counter`]s
//!   (atomic fast path), [`Gauge`]s and log2-bucketed [`Histogram`]s,
//!   plus [`SampleEvery`] for decimating per-cycle hot paths, snapshotted
//!   to JSON,
//! * [`trace`] — the JSONL event sink: one [`FaultRecord`] per injected
//!   fault (site, zone, inject cycle, outcome, cycles simulated/skipped,
//!   engine path, collapse representative, shard, wall-time) plus span,
//!   phase, meta and end records, written by a dedicated thread behind a
//!   bounded channel so simulation workers never block on I/O,
//! * [`progress`] — the live reporter: a [`ProgressSample`] over the
//!   campaign's atomic stats (faults/s, ETA, running DC/SFF, per-outcome
//!   counts, dictionary and cycle-skip effectiveness) rendered through a
//!   pluggable [`Render`] (stderr in the CLI, capture in tests),
//! * [`summarize`] — offline re-aggregation of a trace
//!   ([`TraceSummary`]): per-zone / per-kind / per-engine / per-phase
//!   tables, slowest faults, and independently recomputed outcome counts,
//!   DC and SFF for cross-checking a run's printed claims,
//! * [`profile`] — self-time attribution over the span tree
//!   ([`Profile`]): folded-stack flamegraph export and profile diffing
//!   for `socfmea trace flame|diff`,
//! * [`json`] — the minimal JSON codec backing all of the above.
//!
//! Correlated telemetry: a [`TraceCtx`] minted at the system boundary
//! (the campaign server's HTTP accept) rides the [`Observer`] through
//! every stage, stamping `job`/`tenant` onto span, phase and metric
//! records, while the deterministic result stream flows on a separate
//! channel — see [`observer`] for the routing rules.

pub mod json;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod progress;
pub mod summarize;
pub mod trace;

pub use metrics::{
    labeled_name, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
    SampleEvery,
};
pub use observer::{Observer, Span, TraceCtx};
pub use profile::Profile;
pub use progress::{CaptureRender, ProgressReporter, ProgressSample, Render, StderrRender};
pub use summarize::{SummaryError, TraceSummary};
pub use trace::{
    FaultRecord, StreamBuffer, StreamWriter, TraceEvent, TraceSink, TRACE_SCHEMA_VERSION,
};
