//! Outside-in benchmark of the Marionette stack.
//!
//! Three workloads drive the stack only through the public calls in
//! [`adapter`], bit-verify every op, and report end-to-end metrics from
//! an untraced run or per-layer attribution from a traced one. See
//! `perfbench/README.md` for the metric definitions.

pub mod adapter;
pub mod grid;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Instant;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Simulate every compiled grid point (the `sim` event loop).
    Sweep,
    /// Compile every grid point with the annealing explorer.
    Anneal,
    /// Closed-loop `mard` traffic: cache hits beside misses.
    Serve,
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sweep" => Ok(Workload::Sweep),
            "anneal" => Ok(Workload::Anneal),
            "serve" => Ok(Workload::Serve),
            _ => Err(format!("unknown workload `{s}` (sweep, anneal, serve)")),
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds (split evenly between the untraced and traced
    /// phases of a traced run).
    pub seconds: f64,
    /// Report per-layer attribution instead of end-to-end metrics.
    pub trace: bool,
}

impl Config {
    /// Set-up rounds: [`ROUNDS`] untraced, one traced (whose set-up is
    /// attributed and whose timed phase is split untraced/traced).
    pub fn rounds(&self) -> usize {
        if self.trace {
            1
        } else {
            ROUNDS
        }
    }

    /// Set-ups per round; their mean is one set-up sample. A traced run
    /// sets up once.
    pub fn setup_batch(&self) -> usize {
        match (self.trace, self.workload) {
            (true, _) => 1,
            (false, Workload::Serve) => SERVE_SETUP_BATCH,
            (false, _) => GRID_SETUP_BATCH,
        }
    }
}

/// Op-phase layers every traced run reports, in print order. A layer a
/// workload never calls reports zero time and zero calls.
pub const OP_LAYERS: &[&str] = &[
    "lang.frontend",
    "cdfg.reference",
    "serve.options",
    "serve.cache",
    "compiler.compile",
    "isa.encode",
    "isa.decode",
    "sim.build",
    "sim.loop",
    "verify.golden",
    "verify.reference",
    "serve.outside_handler",
];

/// Every other per-layer metric and its unit; one a workload has no
/// such layer for is reported as zero.
pub const LAYER_SCALARS: &[(&str, &str)] = &[
    ("kernels.build_ms", "ms"),
    ("setup.compiler.compile_ms", "ms"),
    ("setup.isa.encode_ms", "ms"),
    ("setup.isa.decode_ms", "ms"),
    ("setup.serve.start_ms", "ms"),
    ("setup.serve.fill_ms", "ms"),
    ("setup.unattributed_ms", "ms"),
    ("setup.total_ms", "ms"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.fires", "count"),
    ("compiler.accept_ratio", "ratio"),
    ("compiler.rerouted", "count"),
    ("isa.bytes", "bytes"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.inserts", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.handler_ms", "ms/op"),
    ("serve.rejected_429", "count"),
    ("trace_overhead_ratio", "ratio"),
];

/// Rounds of an untraced run: each round sets up anew, then runs its
/// share of the timed phase. The set-up samples so spread over the whole
/// run, as the ops do, and `setup_s` is their median. A short set-up
/// timed back to back at the start read anywhere from 19 to 34 ms on the
/// same seed, with the host's speed at that moment.
pub const ROUNDS: usize = 15;

/// Back-to-back set-ups one set-up sample of an untraced grid run is the
/// mean of. A single ~20-ms grid set-up falls wholly into one of the
/// host's fast or slow spells (17–20 ms or 24–30 ms within one run), and
/// the median of such samples jumped between the two.
pub const GRID_SETUP_BATCH: usize = 8;

/// The same for `serve`, whose set-up lasts about three times longer.
pub const SERVE_SETUP_BATCH: usize = 3;

/// Samples a percentile run needs at least (p99 with ten beyond it).
pub const MIN_PERCENTILE_OPS: usize = 1000;

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed verification or errored.
    pub failed: u64,
    /// Per-op latency of verified ops, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Phase wall time, nanoseconds.
    pub wall_ns: u64,
    /// First failure messages (capped).
    pub errors: Vec<String>,
}

impl Phase {
    /// Records one op's outcome.
    pub fn record(&mut self, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(ns) => self.lat_ns.push(ns),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Verified ops per second of phase wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }

    /// Appends a phase that ran after this one: the walls add.
    pub fn append(&mut self, other: Phase) {
        let wall_ns = self.wall_ns + other.wall_ns;
        self.merge(other);
        self.wall_ns = wall_ns;
    }

    /// Folds another client's phase into this one (walls overlap: the
    /// longer one is kept).
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lat_ns.extend(other.lat_ns);
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Keeps running whole passes until `seconds` have passed and at least
/// `min_ops` ops were attempted.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_ops: u64,
}

impl Deadline {
    /// Starts the clock.
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            min_ops: min_ops as u64,
        }
    }

    /// True while another pass is owed.
    pub fn more(&self, attempted: u64) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds || attempted < self.min_ops
    }

    /// Elapsed nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        trace::elapsed_ns(self.start)
    }
}

/// Runs `cfg`, returning the report to print.
pub fn run(cfg: &Config) -> report::Report {
    let started = Instant::now();
    let mut rep = match cfg.workload {
        Workload::Sweep | Workload::Anneal => grid::run(cfg),
        Workload::Serve => serve::run(cfg),
    };
    if cfg.trace {
        rep.zero_missing_layers();
    }
    rep.meta_num("run_wall_s", started.elapsed().as_secs_f64());
    rep
}
