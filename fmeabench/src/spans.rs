//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! public call made from this crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The campaign or job this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder; when off, `enter`/`exit` cost a branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans::starting_at(on, Instant::now())
    }

    /// A recorder whose timestamps count from `t0`, so spans recorded on
    /// several threads can be merged onto one timeline.
    pub fn starting_at(on: bool, t0: Instant) -> Spans {
        Spans {
            on,
            t0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Appends the closed spans of another recorder.
    pub fn merge(&mut self, other: Spans) {
        assert!(other.stack.is_empty(), "merged spans must all be closed");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer in ms summed over all spans (a span's duration
    /// minus the part its child spans cover), and the number of distinct
    /// operation ids the spans carry.
    pub fn self_ms_by_layer(&self) -> (BTreeMap<&'static str, f64>, usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        let ops: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.op).collect();
        (out, ops.len())
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.name,
                layer_of(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// The workspace module a span's call goes into. Root spans (`campaign`,
/// `job`) and the client side of a served job belong to the benchmark.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "elaborate" => "memsys_mcu",
        "core" => "core",
        "faultsim" | "simulate" => "faultsim",
        "accel" => "accel",
        "static" => "static",
        "obs" => "obs",
        "netlist" => "netlist",
        "serve" => "serve",
        _ => "bench",
    }
}
