//! Full-stack execution of a `.mar` program: parse → check → lower →
//! compile → bitstream round-trip → cycle-level simulation, with every
//! preset's simulation checked bit-for-bit against the reference
//! interpreter. This is the engine behind the `marc` CLI and the golden
//! example tests.

use crate::ast;
use crate::diag::Diagnostic;
use crate::lower::lower;
use crate::parser::parse;
use crate::sema::check;
use marionette::runner::{compile_roundtrip, self_heal, HealError, RunnerError};
use marionette::sim::{EngineKind, FaultSet, Tracer};
use marionette_arch::Architecture;
use marionette_cdfg::interp::{interpret_with_budget, ExecMode, InterpError, InterpResult};
use marionette_cdfg::value::{compare_sink_maps as compare_sinks, stream_mismatch, Value};
use marionette_cdfg::Cdfg;
use std::fmt;

/// Firing budget for the reference interpretations.
pub const INTERP_BUDGET: u64 = 200_000_000;

/// Default cycle budget per simulated preset.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// A failure anywhere in the source-to-silicon pipeline.
#[derive(Debug)]
pub enum DriverError {
    /// Lexing or parsing failed.
    Parse(Diagnostic),
    /// Semantic checks failed.
    Sema(Vec<Diagnostic>),
    /// The reference interpreter failed (or its two steering modes
    /// disagreed, which indicates an operator-semantics bug).
    Interp(InterpError),
    /// The two interpreter modes disagreed.
    Modes(String),
    /// Placement/routing failed on a preset.
    Compile {
        /// Preset short tag.
        preset: String,
        /// Compiler error.
        e: marionette::compiler::PlaceError,
    },
    /// The configuration bitstream did not round-trip.
    Bitstream {
        /// Preset short tag.
        preset: String,
        /// Decoder error text.
        detail: String,
    },
    /// Simulation failed on a preset.
    Sim {
        /// Preset short tag.
        preset: String,
        /// Simulator error.
        e: marionette::sim::SimError,
    },
    /// Simulated results diverged from the reference interpreter.
    Mismatch {
        /// Preset short tag.
        preset: String,
        /// First mismatch description.
        detail: String,
    },
    /// A tenancy partition layout is invalid (overlap, off-fabric, …).
    Partition(marionette::compiler::PartitionError),
    /// Per-partition bitstreams could not be merged into one
    /// multi-tenant image (cross-partition route, stray node, …).
    Image(marionette::isa::ImageError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Parse(d) => write!(f, "parse: {}", d.message),
            DriverError::Sema(ds) => {
                write!(
                    f,
                    "{} semantic error(s); first: {}",
                    ds.len(),
                    ds[0].message
                )
            }
            DriverError::Interp(e) => write!(f, "reference interpreter: {e}"),
            DriverError::Modes(d) => write!(f, "interpreter steering modes disagree: {d}"),
            DriverError::Compile { preset, e } => write!(f, "compile on {preset}: {e}"),
            DriverError::Bitstream { preset, detail } => {
                write!(f, "bitstream round-trip on {preset}: {detail}")
            }
            DriverError::Sim { preset, e } => write!(f, "simulate on {preset}: {e}"),
            DriverError::Mismatch { preset, detail } => {
                write!(f, "sim diverges from the reference on {preset}: {detail}")
            }
            DriverError::Partition(e) => write!(f, "partition layout: {e}"),
            DriverError::Image(e) => write!(f, "multi-tenant image: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Parses, checks and lowers source text.
///
/// # Errors
/// Returns [`DriverError::Parse`] or [`DriverError::Sema`].
pub fn frontend(src: &str) -> Result<(ast::Program, Cdfg), DriverError> {
    let p = parse(src).map_err(DriverError::Parse)?;
    check(&p).map_err(DriverError::Sema)?;
    let g = lower(&p);
    Ok((p, g))
}

/// The program's reference semantics: both interpreter steering modes,
/// cross-checked against each other.
#[derive(Debug)]
pub struct Reference {
    /// Dropping-mode interpretation (the specification).
    pub dropping: InterpResult,
    /// Predicated-mode interpretation (fires both branch sides).
    pub predicated: InterpResult,
}

/// Interprets `g` in both modes with `overrides` and cross-checks them.
///
/// # Errors
/// Returns [`DriverError::Interp`] (including unknown parameter
/// overrides, surfaced as [`InterpError::UnknownParam`]) or
/// [`DriverError::Modes`].
pub fn reference(
    g: &Cdfg,
    overrides: &[(String, Value)],
    budget: u64,
) -> Result<Reference, DriverError> {
    let ovr: Vec<(&str, Value)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let dropping =
        interpret_with_budget(g, ExecMode::Dropping, &ovr, budget).map_err(DriverError::Interp)?;
    let predicated = interpret_with_budget(g, ExecMode::Predicated, &ovr, budget)
        .map_err(DriverError::Interp)?;
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        if let Some(m) = stream_mismatch(dropping.memory.array(id), predicated.memory.array(id)) {
            return Err(DriverError::Modes(format!("array {}{m}", arr.name)));
        }
    }
    compare_sinks(&dropping.sinks, &predicated.sinks).map_err(DriverError::Modes)?;
    Ok(Reference {
        dropping,
        predicated,
    })
}

/// One preset's measured, verified run.
#[derive(Clone, Debug)]
pub struct PresetRun {
    /// Preset short tag.
    pub preset: String,
    /// Total cycles to quiescence.
    pub cycles: u64,
    /// Total node firings.
    pub fires: u64,
    /// Cycles flits spent blocked on busy links.
    pub link_stall_cycles: u64,
    /// Cycles stalled on group configuration switches.
    pub switch_stall_cycles: u64,
    /// Number of group switches.
    pub group_switches: u64,
    /// Routed point-to-point connections.
    pub routes: usize,
    /// Mean mesh hops per data route.
    pub mean_data_hops: f64,
    /// Annealing search report, when the mapping explorer ran.
    pub search: Option<marionette::compiler::SearchReport>,
    /// Disassembly of the (decoded) configuration, when requested.
    pub disasm: Option<String>,
}

/// A compiled, bitstream-round-tripped preset artifact: the unit the
/// `mard` content-addressed cache stores and replays.
pub use marionette::runner::Compiled;

/// Compiles `g` for `arch` around `faults` and round-trips the
/// configuration bitstream, with the driver's typed errors.
fn compile_around(
    g: &Cdfg,
    arch: &Architecture,
    faults: &FaultSet,
) -> Result<Compiled, DriverError> {
    let preset = arch.short.to_string();
    compile_roundtrip(g, arch, faults).map_err(|e| match e {
        RunnerError::Compile(e) => DriverError::Compile { preset, e },
        e => DriverError::Bitstream {
            preset,
            detail: e.to_string(),
        },
    })
}

/// Compiles `g` for `arch` and round-trips the configuration bitstream,
/// without simulating: the compile half of [`run_preset`], split out so
/// a server can cache the artifact and reuse it across requests.
///
/// # Errors
/// Returns [`DriverError::Compile`] or [`DriverError::Bitstream`].
pub fn compile_preset(g: &Cdfg, arch: &Architecture) -> Result<Compiled, DriverError> {
    compile_around(g, arch, &FaultSet::none())
}

/// Simulates a pre-compiled preset artifact with `faults` injected and
/// bit-verifies it against `reference` — the simulate half of
/// [`run_preset`], usable with a [`Compiled`] pulled from a cache
/// instead of a fresh compile. Pass [`FaultSet::none`] for a healthy
/// fabric; [`EngineKind`] selects nothing (it keeps the signature the
/// benchmark harness calls).
///
/// # Errors
/// Returns [`DriverError::Sim`] (including the typed
/// [`marionette::sim::SimError::Fault`] screen when the artifact touches
/// a dead resource) or [`DriverError::Mismatch`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_compiled(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    compiled: &Compiled,
    overrides: &[(String, Value)],
    max_cycles: u64,
    faults: &FaultSet,
    _engine: EngineKind,
) -> Result<PresetRun, DriverError> {
    let preset = arch.short.to_string();
    let inputs = array_inputs(g);
    let r = marionette::sim::run_with_faults(
        &compiled.prog,
        &arch.tm,
        faults,
        &inputs,
        overrides,
        max_cycles,
    )
    .map_err(|e| DriverError::Sim {
        preset: preset.clone(),
        e,
    })?;
    verify_run(g, reference, arch, &preset, compiled, &r)
}

/// Simulates N parameter lanes of one pre-compiled artifact in a single
/// batched pass ([`marionette::sim::run_lanes`]): the machine is built
/// once and reset between lanes, which is how the `mard` batch endpoint
/// folds same-bitstream requests into one run. Lane `i` is verified
/// against `references[i]` (its own parameter set's reference
/// interpretation); a lane that wedges reports its own error without
/// poisoning its neighbours.
///
/// # Errors
/// The outer `Err` is a [`DriverError::Sim`] from machine construction;
/// per-lane simulation/verification failures come back in the inner
/// results.
///
/// # Panics
/// Panics if `references` and `lane_overrides` lengths differ.
pub fn simulate_compiled_lanes(
    g: &Cdfg,
    references: &[Reference],
    arch: &Architecture,
    compiled: &Compiled,
    lane_overrides: &[Vec<(String, Value)>],
    max_cycles: u64,
) -> Result<Vec<Result<PresetRun, DriverError>>, DriverError> {
    assert_eq!(
        references.len(),
        lane_overrides.len(),
        "one reference per lane"
    );
    let preset = arch.short.to_string();
    let inputs = array_inputs(g);
    let lanes: Vec<marionette::sim::LaneSpec> = lane_overrides
        .iter()
        .map(|ovr| marionette::sim::LaneSpec {
            inputs: inputs.clone(),
            params: ovr.clone(),
        })
        .collect();
    let results = marionette::sim::run_lanes(&compiled.prog, &arch.tm, &lanes, max_cycles)
        .map_err(|e| DriverError::Sim {
            preset: preset.clone(),
            e,
        })?;
    Ok(results
        .into_iter()
        .zip(references)
        .map(|(r, reference)| {
            let r = r.map_err(|e| DriverError::Sim {
                preset: preset.clone(),
                e,
            })?;
            verify_run(g, reference, arch, &preset, compiled, &r)
        })
        .collect())
}

/// Compiles `g` for `arch`, round-trips the bitstream, simulates the
/// decoded program and verifies it bit-for-bit against `reference`.
///
/// # Errors
/// Returns the first [`DriverError`] along the pipeline.
pub fn run_preset(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    overrides: &[(String, Value)],
    max_cycles: u64,
    want_disasm: bool,
) -> Result<PresetRun, DriverError> {
    let fr = run_preset_faulted(
        g,
        reference,
        arch,
        overrides,
        max_cycles,
        &FaultSet::none(),
        None,
    )?;
    let mut run = fr.run;
    if want_disasm {
        run.disasm = Some(marionette::isa::disasm::disassemble(&fr.compiled.prog));
    }
    Ok(run)
}

pub(crate) fn array_inputs(g: &Cdfg) -> Vec<(String, Vec<Value>)> {
    g.arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect()
}

/// Bit-verifies a simulation of `compiled` against the reference
/// interpreter — every array stream, every sink stream, the
/// out-of-bounds event count and the firing count (predicated or
/// dropping, per the timing model) — and summarizes it as `label`'s
/// run.
///
/// # Errors
/// Returns [`DriverError::Mismatch`] naming the first divergence.
pub fn verify_run(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    label: &str,
    compiled: &Compiled,
    r: &marionette::sim::RunResult,
) -> Result<PresetRun, DriverError> {
    let prog = &compiled.prog;
    let fail = |detail: String| DriverError::Mismatch {
        preset: label.to_string(),
        detail,
    };
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        let expect = reference.dropping.memory.array(id);
        let got = r
            .array(prog, &arr.name)
            .ok_or_else(|| fail(format!("array {} missing from the simulation", arr.name)))?;
        if let Some(m) = stream_mismatch(expect, got) {
            return Err(fail(format!("array {}{m}", arr.name)));
        }
    }
    compare_sinks(&reference.dropping.sinks, &r.sinks).map_err(fail)?;
    if r.oob_events != reference.dropping.memory.oob_events() {
        return Err(fail(format!(
            "interp saw {} out-of-bounds events, sim {}",
            reference.dropping.memory.oob_events(),
            r.oob_events
        )));
    }
    let expect_fires = if arch.tm.predicated_branches {
        reference.predicated.firings
    } else {
        reference.dropping.firings
    };
    if r.stats.fires != expect_fires {
        return Err(fail(format!(
            "interp fired {expect_fires} times, sim fired {}",
            r.stats.fires
        )));
    }
    let report = &compiled.report;
    Ok(PresetRun {
        preset: label.to_string(),
        cycles: r.stats.cycles,
        fires: r.stats.fires,
        link_stall_cycles: r.stats.link_stall_cycles,
        switch_stall_cycles: r.stats.switch_stall_cycles,
        group_switches: r.stats.group_switches,
        routes: report.routes,
        mean_data_hops: report.mean_data_hops,
        search: report.search.clone(),
        disasm: None,
    })
}

/// One preset's run on a faulted fabric.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the fault-oblivious bitstream, when one did.
    pub wedged: Option<String>,
    /// Whether the measurement comes from a fault-aware remap rather
    /// than the original mapping.
    pub remapped: bool,
    /// The verified measurement.
    pub run: PresetRun,
    /// The program that ran: the original mapping or its remap.
    pub compiled: Compiled,
}

/// Runs `g` on `arch` with `faults` injected, self-healing by remap
/// ([`marionette::runner::self_heal`]) when the fault-oblivious
/// bitstream touches a dead resource, then bit-verifies the surviving
/// run against the reference interpreter — the same
/// arrays/sinks/oob/fires oracle [`run_preset`] applies.
///
/// With a `tracer`, both simulations are recorded and a wedged bitstream
/// leaves a `remap after <resource>` marker on the trace's marks track;
/// the traced run is bit-identical to the untraced one. With an empty
/// `faults` this is [`run_preset`].
///
/// A remap that still cannot fit ([`DriverError::Compile`]) is the typed
/// "remap infeasible" outcome callers count as a degradation failure.
///
/// # Errors
/// Returns the first [`DriverError`] along whichever pipeline (original
/// or remapped) survives fault screening.
#[allow(clippy::too_many_arguments)]
pub fn run_preset_faulted(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    overrides: &[(String, Value)],
    max_cycles: u64,
    faults: &FaultSet,
    tracer: Option<&mut Tracer>,
) -> Result<FaultRun, DriverError> {
    let preset = arch.short.to_string();
    let inputs = array_inputs(g);
    let first = compile_preset(g, arch)?;
    let healed = self_heal(
        arch,
        first,
        tracer,
        |c, t| {
            marionette::sim::run_full_traced(
                &c.prog, &arch.tm, faults, &inputs, overrides, max_cycles, t,
            )
        },
        |healed| compile_around(g, healed, faults),
    )
    .map_err(|e| match e {
        HealError::Remap(e) => e,
        HealError::Sim { e, .. } => DriverError::Sim {
            preset: preset.clone(),
            e,
        },
    })?;
    Ok(FaultRun {
        run: verify_run(g, reference, arch, &preset, &healed.compiled, &healed.run)?,
        remapped: healed.wedged.is_some(),
        wedged: healed.wedged,
        compiled: healed.compiled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette::runner::compile_for_arch;

    const SRC: &str = "
program smoke;
param n: i32 = 6;
input a: i32[8] = [3, 1, 4, 1, 5, 9, 2, 6];
state s: i32[8];

let sum = for i in 0..n with acc = 0 {
  let x = a[i];
  let (y,) = if x & 1 { yield x * 3; } else { yield x; };
  s[i] = y;
  yield acc + y;
};
sink sum = sum;
";

    #[test]
    fn full_stack_on_the_ladder() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        for arch in marionette_arch::all_presets() {
            let run = run_preset(&g, &r, &arch, &[], DEFAULT_MAX_CYCLES, false)
                .unwrap_or_else(|e| panic!("{}: {e}", arch.short));
            assert!(run.cycles > 0);
        }
    }

    #[test]
    fn dead_resource_is_a_typed_fault_not_a_deadlock() {
        let (_, g) = frontend(SRC).unwrap();
        let arch = marionette_arch::marionette_full();
        let (prog, _) = compile_for_arch(&g, &arch).unwrap();
        let mut faults = marionette::sim::FaultSet::new(arch.opts.rows, arch.opts.cols);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        let inputs = array_inputs(&g);
        let err = marionette::sim::run_with_faults(
            &prog,
            &arch.tm,
            &faults,
            &inputs,
            &[],
            DEFAULT_MAX_CYCLES,
        )
        .unwrap_err();
        match err {
            marionette::sim::SimError::Fault { what, .. } => assert_eq!(what, "pe:0,0"),
            other => panic!("expected a typed fault, got {other}"),
        }
    }

    #[test]
    fn heal_loop_remaps_around_a_dead_pe() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        let arch = marionette_arch::marionette_full();
        let mut faults = marionette::sim::FaultSet::new(arch.opts.rows, arch.opts.cols);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        let fr = run_preset_faulted(&g, &r, &arch, &[], DEFAULT_MAX_CYCLES, &faults, None).unwrap();
        assert_eq!(fr.wedged.as_deref(), Some("pe:0,0"));
        assert!(fr.remapped, "a dead anchor tile must force a remap");
        assert!(fr.run.cycles > 0);
    }

    #[test]
    fn flaky_links_stretch_cycles_but_never_values() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        let arch = marionette_arch::marionette_full();
        let clean = run_preset(&g, &r, &arch, &[], DEFAULT_MAX_CYCLES, false).unwrap();
        let (rows, cols) = (arch.opts.rows, arch.opts.cols);
        let mut prev = clean.cycles;
        let mut grew = false;
        for mult in [2u32, 8] {
            // Degrade every mesh link in both directions: any program
            // with at least one cross-tile flit route must slow down.
            let mut faults = marionette::sim::FaultSet::new(rows, cols);
            for row in 0..rows {
                for col in 0..cols {
                    if col + 1 < cols {
                        for (a, b) in [((row, col), (row, col + 1)), ((row, col + 1), (row, col))] {
                            faults
                                .add(marionette::sim::FaultSpec::FlakyLink {
                                    from: a,
                                    to: b,
                                    mult,
                                })
                                .unwrap();
                        }
                    }
                    if row + 1 < rows {
                        for (a, b) in [((row, col), (row + 1, col)), ((row + 1, col), (row, col))] {
                            faults
                                .add(marionette::sim::FaultSpec::FlakyLink {
                                    from: a,
                                    to: b,
                                    mult,
                                })
                                .unwrap();
                        }
                    }
                }
            }
            // run_preset_faulted bit-verifies against the interpreter, so
            // a value changed by a flaky link would fail here.
            let fr =
                run_preset_faulted(&g, &r, &arch, &[], DEFAULT_MAX_CYCLES, &faults, None).unwrap();
            assert!(!fr.remapped, "flaky links must not wedge the bitstream");
            assert!(
                fr.run.cycles >= prev,
                "cycles must grow monotonically with the stall multiplier"
            );
            prev = fr.run.cycles;
            grew = grew || fr.run.cycles > clean.cycles;
        }
        assert!(grew, "uniformly flaky mesh must cost cycles");
    }

    #[test]
    fn unknown_param_override_is_typed() {
        let (_, g) = frontend(SRC).unwrap();
        let e = reference(&g, &[("zz".to_string(), Value::I32(1))], INTERP_BUDGET).unwrap_err();
        match e {
            DriverError::Interp(InterpError::UnknownParam { name }) => assert_eq!(name, "zz"),
            other => panic!("expected UnknownParam, got {other}"),
        }
    }

    #[test]
    fn sema_errors_surface_with_spans() {
        let e = frontend("program t; state s: i32[4]; let x = nope + 1;").unwrap_err();
        match e {
            DriverError::Sema(ds) => assert!(ds[0].message.contains("unknown name")),
            other => panic!("expected Sema, got {other}"),
        }
    }
}
