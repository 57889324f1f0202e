//! Every call the benchmark makes into the Marionette stack.
//!
//! The workloads time these calls from outside; nothing here measures.
//! Keeping the whole program surface in one module means an API change
//! in the stack (one run entry point, one engine) edits this file and no
//! other. Simulations use the default engine and no fault injection.

use marionette::arch::FabricDims;
use marionette::cdfg::value::Value;
use marionette::cdfg::Cdfg;
use marionette::compiler::{CompileReport, SearchBudget};
use marionette::kernels::traits::{Golden, Kernel, Scale};
use marionette::sim::{EngineKind, FaultSet, RunResult, SimError, TimingModel};
use marionette_lang::driver::{Compiled, PresetRun};
use marionette_serve::cache::{CacheKey, CacheStats, CachedArtifact};
use marionette_serve::http::Request;
use marionette_serve::{Counters, RouteMeta, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;

pub use marionette::arch::Architecture;
pub use marionette::isa::MachineProgram;
pub use marionette_lang::driver::Reference;
pub use marionette_serve::cache::CompileCache;
pub use marionette_serve::{Server, ServerState};

pub use marionette::runner::DEFAULT_MAX_CYCLES;

/// Workload scale of every benchmark input.
pub const SCALE: Scale = Scale::Small;

/// The paper's Fig. 17 geomean speedups of Marionette over each SOTA
/// model on the control-flow-intensive kernels (the values
/// `crates/bench/src/report.rs` prints beside the model's).
pub const PAPER_SPEEDUPS: [(&str, f64); 4] =
    [("SB", 2.88), ("TIA", 3.38), ("RV", 1.55), ("RT", 2.66)];

/// The model's Fig. 17 geomean speedups of Marionette over each SOTA
/// model on the intensive kernels for `seed`; every point is
/// golden-verified by the experiment.
///
/// # Errors
/// The runner's typed error, rendered.
pub fn model_speedups(seed: u64) -> Result<Vec<(String, f64)>, String> {
    marionette::experiments::fig17(SCALE, seed)
        .map(|f| f.geomeans)
        .map_err(|e| format!("fig17: {e}"))
}

/// The evaluation grid's kernels: the 13-kernel suite plus the
/// composite LDPC application, in figure order.
pub fn grid_kernels() -> Vec<Box<dyn Kernel>> {
    let mut ks = marionette::kernels::all();
    ks.push(marionette::kernels::ldpc_app());
    ks
}

/// All nine presets on the paper's 4×4 fabric, in canonical order.
pub fn grid_presets() -> Vec<Architecture> {
    marionette::arch::all_presets_on(FabricDims::paper())
}

/// `arch` with the annealing mapping explorer's default budget.
pub fn searched(arch: &Architecture) -> Architecture {
    let mut a = arch.clone();
    a.opts.search = SearchBudget::default_on();
    a
}

/// Worker threads a searched compile fans its restart chains over.
pub fn compile_threads() -> usize {
    marionette::parallel::sweep_threads()
}

/// A kernel instantiated on one seed: its CDFG, golden outputs and the
/// simulator's initial array contents.
pub struct BuiltKernel {
    /// Kernel short tag.
    pub tag: &'static str,
    /// The program graph.
    pub cdfg: Cdfg,
    /// Golden reference outputs.
    pub golden: Golden,
    /// Initial array contents, by name.
    pub inputs: Vec<(String, Vec<Value>)>,
}

/// Builds `k`'s workload, golden reference and CDFG for `seed`.
///
/// # Errors
/// The kernel's typed build error, rendered.
pub fn build_kernel(k: &dyn Kernel, seed: u64) -> Result<BuiltKernel, String> {
    let wl = k.workload(SCALE, seed);
    let golden = k.golden(&wl).map_err(|e| format!("{}: {e}", k.short()))?;
    let cdfg = k.build(&wl).map_err(|e| format!("{}: {e}", k.short()))?;
    let inputs = cdfg_inputs(&cdfg);
    Ok(BuiltKernel {
        tag: k.short(),
        cdfg,
        golden,
        inputs,
    })
}

/// Compiles `g` for `arch` (greedy or searched, per `arch.opts`).
///
/// # Errors
/// The placement/routing error, rendered.
pub fn compile(g: &Cdfg, arch: &Architecture) -> Result<(MachineProgram, CompileReport), String> {
    marionette::runner::compile_for_arch(g, arch).map_err(|e| format!("compile: {e}"))
}

/// Serializes a program to its configuration bitstream.
pub fn encode(prog: &MachineProgram) -> Vec<u8> {
    marionette::isa::bitstream::encode(prog)
}

/// Decodes a configuration bitstream.
///
/// # Errors
/// The decoder's typed error, rendered.
pub fn decode(bytes: &[u8]) -> Result<MachineProgram, String> {
    marionette::isa::bitstream::decode(bytes).map_err(|e| format!("decode: {e}"))
}

/// Simulates `prog` to quiescence on a healthy fabric.
///
/// # Errors
/// The simulator's typed error (wedge, cycle limit).
pub fn simulate(
    prog: &MachineProgram,
    tm: &TimingModel,
    inputs: &[(String, Vec<Value>)],
    params: &[(String, Value)],
    max_cycles: u64,
) -> Result<RunResult, SimError> {
    marionette::sim::run_full(
        prog,
        tm,
        &FaultSet::none(),
        EngineKind::default(),
        inputs,
        params,
        max_cycles,
    )
}

/// Builds the machine for `prog`, applies the workload and boots it,
/// then stops: a zero cycle budget returns `CycleLimit` before the
/// event loop runs a cycle.
///
/// # Errors
/// Any outcome other than that `CycleLimit` is reported.
pub fn build_machine(
    prog: &MachineProgram,
    tm: &TimingModel,
    inputs: &[(String, Vec<Value>)],
) -> Result<(), String> {
    match simulate(prog, tm, inputs, &[], 0) {
        Err(SimError::CycleLimit { limit: 0 }) => Ok(()),
        Err(e) => Err(format!("machine build: {e}")),
        Ok(_) => Err("machine build: a zero-cycle run completed".to_string()),
    }
}

/// Bit-compares a run against the kernel's golden outputs (arrays, sink
/// streams) and requires zero out-of-bounds events.
///
/// # Errors
/// Names the first mismatch.
pub fn check_golden(k: &BuiltKernel, r: &RunResult) -> Result<(), String> {
    let mismatches = marionette::kernels::verify::check_vs_golden(
        &k.cdfg,
        &k.golden,
        |arr| r.memory[arr.0 as usize].clone(),
        |name| r.sinks.get(name).cloned().unwrap_or_default(),
    )
    .map_err(|e| format!("{}: {e}", k.tag))?;
    if let Some(m) = mismatches.first() {
        return Err(format!(
            "{}: {} mismatches, first: {m}",
            k.tag,
            mismatches.len()
        ));
    }
    if r.oob_events > 0 {
        return Err(format!("{}: {} out-of-bounds events", k.tag, r.oob_events));
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// Presets the serve corpus rotates through.
pub const SERVE_PRESETS: [&str; 3] = ["M", "DF", "RT"];

/// The preset named `tag` on the paper's fabric.
///
/// # Errors
/// Unknown tag.
pub fn preset(tag: &str) -> Result<Architecture, String> {
    marionette::arch::presets_by_tags_on(FabricDims::paper(), tag)?
        .into_iter()
        .next()
        .ok_or_else(|| format!("no preset `{tag}`"))
}

/// The `.mar` source of the fuzz generator's program for `seed`.
pub fn fuzz_source(seed: u64) -> String {
    let p = marionette_fuzzgen::gen::generate(seed, &marionette_fuzzgen::gen::GenConfig::default());
    marionette_fuzzgen::source::to_mar(&p)
}

/// `mard`'s configuration as it ships.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// Starts an in-process `mard` on an ephemeral port.
///
/// # Errors
/// The bind error.
pub fn start_server(cfg: ServeConfig) -> std::io::Result<Server> {
    Server::start(cfg)
}

/// Stops a server and joins its threads.
pub fn stop_server(s: Server) {
    s.stop();
}

/// Server-side state with no listener, for socketless routing.
pub fn socketless_state(cfg: ServeConfig) -> ServerState {
    ServerState {
        cache: CompileCache::new(cfg.cache_cap),
        counters: Counters::default(),
        metrics: marionette_serve::metrics::Metrics::default(),
        cfg,
    }
}

/// A `POST /run?preset=<tag>` request carrying `body`.
pub fn run_request(tag: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/run".to_string(),
        query: vec![("preset".to_string(), tag.to_string())],
        headers: vec![("content-length".to_string(), body.len().to_string())],
        body: body.as_bytes().to_vec(),
    }
}

/// Routes one request through `mard`'s handler without a socket.
/// Returns the status, the body and the cache verdict.
pub fn route(state: &ServerState, req: &Request) -> (u16, String, Option<bool>) {
    let mut meta = RouteMeta::default();
    let (status, body) = marionette_serve::route_with_meta(state, 0, req, &mut meta);
    (status, body, meta.cache_hit)
}

/// The compile cache's counters.
pub fn cache_stats(state: &ServerState) -> CacheStats {
    state.cache.stats()
}

/// 429 admission rejections the server has written.
pub fn rejected_429(state: &ServerState) -> u64 {
    state
        .counters
        .rejected_429
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// `.mar` front end: parse, check, lower; then the canonical print the
/// cache key is derived from.
///
/// # Errors
/// The front end's diagnostics, rendered.
pub fn frontend(src: &str) -> Result<(Cdfg, String), String> {
    let (ast, g) = marionette_lang::driver::frontend(src).map_err(|e| format!("{e}"))?;
    Ok((g, marionette_lang::print(&ast)))
}

/// Both reference interpreters, cross-checked, with no overrides.
///
/// # Errors
/// The interpreter's typed error, rendered.
pub fn reference(g: &Cdfg, budget: u64) -> Result<Reference, String> {
    marionette_lang::driver::reference(g, &[], budget).map_err(|e| format!("{e}"))
}

/// The reference's sink streams rendered as `mard` renders them.
pub fn reference_sinks_json(r: &Reference) -> String {
    sinks_json(&r.dropping.sinks)
}

/// A simulation's sink streams rendered as `mard` renders them.
pub fn sim_sinks_json(r: &RunResult) -> String {
    sinks_json(&r.sinks)
}

fn sinks_json(sinks: &HashMap<String, Vec<Value>>) -> String {
    let mut labels: Vec<&String> = sinks.keys().collect();
    labels.sort();
    let items: Vec<String> = labels
        .iter()
        .map(|l| {
            let vals: Vec<String> = sinks[*l].iter().map(json_value).collect();
            format!("\"{l}\": [{}]", vals.join(", "))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn json_value(v: &Value) -> String {
    match v {
        Value::I32(x) => x.to_string(),
        Value::F32(x) if x.is_finite() => format!("{x:?}"),
        Value::F32(x) => format!("\"{x}\""),
        Value::Unit => "\"unit\"".to_string(),
        Value::Poison => "\"poison\"".to_string(),
    }
}

/// Decodes a `/run` request's query options as `mard` does.
///
/// # Errors
/// The typed API error, rendered.
pub fn decode_options(state: &ServerState, req: &Request) -> Result<(), String> {
    marionette_serve::job::decode_options(state, req)
        .map(drop)
        .map_err(|e| e.to_json())
}

/// Looks a canonical program up in a server's compile cache.
pub fn cache_lookup(
    state: &ServerState,
    canonical: &str,
    arch: &Architecture,
) -> Option<Arc<CachedArtifact>> {
    state
        .cache
        .lookup(&CacheKey::derive(canonical, arch, &FaultSet::none()))
}

/// A compile cache of `capacity` entries, outside any server.
pub fn new_cache(capacity: usize) -> CompileCache {
    CompileCache::new(capacity)
}

/// Inserts a freshly compiled artifact, as a cache miss does.
pub fn cache_insert(
    cache: &CompileCache,
    canonical: &str,
    arch: &Architecture,
    compiled: &Compiled,
) {
    let key = CacheKey::derive(canonical, arch, &FaultSet::none());
    cache.insert(
        &key,
        CachedArtifact {
            compiled: compiled.clone(),
            wedged: None,
            remapped: false,
        },
    );
}

/// Compiles and bitstream-round-trips `g` for `arch`: the artifact a
/// cache miss inserts.
///
/// # Errors
/// The `lang` driver's typed error, rendered.
pub fn compile_artifact(g: &Cdfg, arch: &Architecture) -> Result<Compiled, String> {
    marionette_lang::driver::compile_preset(g, arch).map_err(|e| format!("{e}"))
}

/// Simulates a compiled artifact and bit-verifies it against the
/// reference interpreters.
///
/// # Errors
/// The `lang` driver's typed error (wedge, mismatch), rendered.
pub fn simulate_verified(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    compiled: &Compiled,
    max_cycles: u64,
) -> Result<PresetRun, String> {
    marionette_lang::driver::simulate_compiled(
        g,
        reference,
        arch,
        compiled,
        &[],
        max_cycles,
        &FaultSet::none(),
        EngineKind::default(),
    )
    .map_err(|e| format!("{e}"))
}

/// The simulator's initial array contents for a lowered program.
pub fn cdfg_inputs(g: &Cdfg) -> Vec<(String, Vec<Value>)> {
    g.arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect()
}
