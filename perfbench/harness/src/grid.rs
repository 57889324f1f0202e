//! The `sweep` and `anneal` workloads over the paper's evaluation grid:
//! 13 kernels plus LDPC-APP on all nine presets, Small scale, 4×4.
//!
//! Set-up (timed as `setup_s`) builds every kernel's workload, golden
//! output and CDFG, compiles every point greedily and round-trips its
//! bitstream. An untraced run sets up anew in each of its rounds; every
//! round's grid must reproduce the first round's results.
//!
//! - `sweep` op: simulate one compiled point and check it against golden
//!   (single thread).
//! - `anneal` op: compile one kernel for all nine presets with the
//!   default annealing budget, round-tripping each bitstream. The
//!   searched mappings are simulated and golden-verified after timing
//!   stops.

use crate::adapter::{self, Architecture, BuiltKernel, MachineProgram, DEFAULT_MAX_CYCLES};
use crate::report::Report;
use crate::trace::{elapsed_ns, timed, Attribution};
use crate::{Config, Deadline, Phase, Workload, MIN_PERCENTILE_OPS};
use std::time::Instant;

/// Set-up layers and the metric each is reported as.
const SETUP_LAYERS: &[(&str, &str)] = &[
    ("kernels.build", "kernels.build_ms"),
    ("compiler.compile", "setup.compiler.compile_ms"),
    ("isa.encode", "setup.isa.encode_ms"),
    ("isa.decode", "setup.isa.decode_ms"),
];

/// One kernel × preset point.
pub struct Point {
    /// Index into [`Grid::kernels`].
    pub kernel: usize,
    /// The preset.
    pub arch: Architecture,
    /// The greedy program, as decoded from its bitstream.
    pub prog: MachineProgram,
}

/// The built grid.
pub struct Grid {
    /// Every kernel, built for the run's seed.
    pub kernels: Vec<BuiltKernel>,
    /// Every point, kernel-major.
    pub points: Vec<Point>,
    /// Greedy bitstream bytes over all points.
    pub bytes: usize,
}

impl Grid {
    /// `kernel:preset` label of point `i`.
    pub fn label(&self, i: usize) -> String {
        let p = &self.points[i];
        format!("{}:{}", self.kernels[p.kernel].tag, p.arch.short)
    }
}

/// Builds the grid for `seed`, charging set-up layers to `attr`.
///
/// # Errors
/// Any kernel build, compile or bitstream failure.
pub fn setup(seed: u64, attr: &mut Attribution) -> Result<Grid, String> {
    let t0 = Instant::now();
    let presets = adapter::grid_presets();
    let mut kernels = Vec::new();
    for k in adapter::grid_kernels() {
        let (built, ns) = timed(|| adapter::build_kernel(k.as_ref(), seed));
        attr.charge("kernels.build", i128::from(ns));
        kernels.push(built?);
    }
    let mut points = Vec::with_capacity(kernels.len() * presets.len());
    let mut bytes = 0;
    for (ki, k) in kernels.iter().enumerate() {
        for arch in &presets {
            let (compiled, ns) = timed(|| adapter::compile(&k.cdfg, arch));
            attr.charge("compiler.compile", i128::from(ns));
            let (prog, _) = compiled.map_err(|e| format!("{}:{}: {e}", k.tag, arch.short))?;
            let (bits, ns) = timed(|| adapter::encode(&prog));
            attr.charge("isa.encode", i128::from(ns));
            let (prog, ns) = timed(|| adapter::decode(&bits));
            attr.charge("isa.decode", i128::from(ns));
            bytes += bits.len();
            points.push(Point {
                kernel: ki,
                arch: arch.clone(),
                prog: prog.map_err(|e| format!("{}:{}: {e}", k.tag, arch.short))?,
            });
        }
    }
    attr.op(elapsed_ns(t0));
    Ok(Grid {
        kernels,
        points,
        bytes,
    })
}

/// What a simulated point produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// Modelled cycles.
    pub cycles: u64,
    /// Node firings.
    pub fires: u64,
}

/// Simulates `prog` for point `i` and golden-checks it. With `attr`,
/// charges the event loop, the machine build and the check (the build is
/// timed by a separate zero-cycle run outside the op).
fn sim_op(
    grid: &Grid,
    i: usize,
    prog: &MachineProgram,
    attr: Option<&mut Attribution>,
) -> Result<(SimOutcome, u64), String> {
    let p = &grid.points[i];
    let k = &grid.kernels[p.kernel];
    let t0 = Instant::now();
    let (r, run_ns) =
        timed(|| adapter::simulate(prog, &p.arch.tm, &k.inputs, &[], DEFAULT_MAX_CYCLES));
    let r = r.map_err(|e| format!("{}: simulate: {e}", grid.label(i)))?;
    let (checked, check_ns) = timed(|| adapter::check_golden(k, &r));
    let op_ns = elapsed_ns(t0);
    checked.map_err(|e| format!("{}: {e}", grid.label(i)))?;
    if let Some(a) = attr {
        let (built, build_ns) = timed(|| adapter::build_machine(prog, &p.arch.tm, &k.inputs));
        built.map_err(|e| format!("{}: {e}", grid.label(i)))?;
        a.op(op_ns);
        a.charge("sim.build", i128::from(build_ns));
        a.charge("sim.loop", i128::from(run_ns) - i128::from(build_ns));
        a.charge("verify.golden", i128::from(check_ns));
    }
    Ok((
        SimOutcome {
            cycles: r.stats.cycles,
            fires: r.stats.fires,
        },
        op_ns,
    ))
}

/// One pass of verified simulations over every point; `expect` pins
/// each point's outcome to the first pass's.
fn sweep_pass(
    grid: &Grid,
    expect: &mut Vec<Option<SimOutcome>>,
    phase: &mut Phase,
    mut attr: Option<&mut Attribution>,
) {
    expect.resize(grid.points.len(), None);
    for (i, want) in expect.iter_mut().enumerate() {
        let out = sim_op(grid, i, &grid.points[i].prog, attr.as_deref_mut()).and_then(|(o, ns)| {
            match *want {
                None => {
                    *want = Some(o);
                    Ok(ns)
                }
                Some(e) if e == o => Ok(ns),
                Some(e) => Err(format!("{}: {o:?} differs from {e:?}", grid.label(i))),
            }
        });
        phase.record(out);
    }
}

/// A searched compile of point `i` and its bitstream round-trip.
struct Searched {
    bits: Vec<u8>,
    prog: MachineProgram,
    accepted: u64,
    attempted: u64,
    rerouted: u64,
}

/// Compiles point `i` with the search budget and round-trips its
/// bitstream, charging each call to `attr`.
fn anneal_compile(
    grid: &Grid,
    i: usize,
    arch: &Architecture,
    attr: Option<&mut Attribution>,
) -> Result<Searched, String> {
    let k = &grid.kernels[grid.points[i].kernel];
    let (compiled, compile_ns) = timed(|| adapter::compile(&k.cdfg, arch));
    let (prog, report) = compiled.map_err(|e| format!("{}: {e}", grid.label(i)))?;
    let (bits, encode_ns) = timed(|| adapter::encode(&prog));
    let (prog, decode_ns) = timed(|| adapter::decode(&bits));
    let prog = prog.map_err(|e| format!("{}: {e}", grid.label(i)))?;
    if let Some(a) = attr {
        a.charge("compiler.compile", i128::from(compile_ns));
        a.charge("isa.encode", i128::from(encode_ns));
        a.charge("isa.decode", i128::from(decode_ns));
    }
    let search = report
        .search
        .ok_or_else(|| format!("{}: searched compile has no search report", grid.label(i)))?;
    Ok(Searched {
        bits,
        prog,
        accepted: u64::from(search.accepted),
        attempted: u64::from(search.attempted),
        rerouted: search.rerouted as u64,
    })
}

/// One pass of `anneal` ops. An op is one kernel compiled for all nine
/// presets: single compiles last about a millisecond, short enough that
/// a scheduling stall of the host doubles one, and their p99 swung by a
/// third between sets of runs. `first` keeps each point's first result;
/// later passes must reproduce its bitstream.
fn anneal_pass(
    grid: &Grid,
    searched: &[Architecture],
    first: &mut Vec<Option<Searched>>,
    phase: &mut Phase,
    accept: &mut (u64, u64),
    mut attr: Option<&mut Attribution>,
) {
    first.resize_with(grid.points.len(), || None);
    for k in 0..grid.kernels.len() {
        let t0 = Instant::now();
        let mut out = Ok(());
        for i in (0..grid.points.len()).filter(|&i| grid.points[i].kernel == k) {
            out = anneal_compile(grid, i, &searched[i], attr.as_deref_mut()).and_then(|s| {
                accept.0 += s.accepted;
                accept.1 += s.attempted;
                match &first[i] {
                    None => {
                        first[i] = Some(s);
                        Ok(())
                    }
                    Some(f) if f.bits == s.bits => Ok(()),
                    Some(_) => Err(format!(
                        "{}: searched bitstream differs between passes",
                        grid.label(i)
                    )),
                }
            });
            if out.is_err() {
                break;
            }
        }
        let ns = elapsed_ns(t0);
        if let Some(a) = attr.as_deref_mut() {
            a.op(ns);
        }
        phase.record(out.map(|()| ns));
    }
}

/// Runs whole passes of `pass` until the deadline.
fn timed_phase(seconds: f64, min_ops: usize, mut pass: impl FnMut(&mut Phase)) -> Phase {
    let mut phase = Phase::default();
    let dl = Deadline::new(seconds, min_ops);
    while dl.more(phase.attempted) {
        pass(&mut phase);
    }
    phase.wall_ns = dl.elapsed_ns();
    phase
}

/// Runs `sweep` or `anneal` per `cfg`.
pub fn run(cfg: &Config) -> Report {
    let anneal = cfg.workload == Workload::Anneal;
    let threads = if anneal {
        adapter::compile_threads()
    } else {
        1
    };
    let mut rep = Report::new(cfg, threads);
    if let Err(e) = run_inner(cfg, anneal, &mut rep) {
        rep.fail(e);
    }
    rep
}

fn run_inner(cfg: &Config, anneal: bool, rep: &mut Report) -> Result<(), String> {
    let mut expect: Vec<Option<SimOutcome>> = Vec::new();
    let mut first: Vec<Option<Searched>> = Vec::new();
    let mut accept = (0u64, 0u64);
    let mut searched: Vec<Architecture> = Vec::new();
    let mut pass = |grid: &Grid,
                    searched: &[Architecture],
                    ph: &mut Phase,
                    accept: &mut (u64, u64),
                    attr: Option<&mut Attribution>| match anneal {
        false => sweep_pass(grid, &mut expect, ph, attr),
        true => anneal_pass(grid, searched, &mut first, ph, accept, attr),
    };

    // Untraced phase, in rounds: every end-to-end timing comes from here.
    let rounds = cfg.rounds();
    let (untraced_s, min_ops) = match cfg.trace {
        true => (cfg.seconds / 2.0, 1),
        false => (cfg.seconds, MIN_PERCENTILE_OPS),
    };
    let mut setup_ns = Vec::new();
    let mut setup_attr = Attribution::default();
    let mut phase = Phase::default();
    let mut grid = None;
    let batch = cfg.setup_batch();
    for round in 0..rounds {
        drop(grid.take());
        let mut g = None;
        let mut batch_ns = 0;
        for _ in 0..batch {
            drop(g.take());
            setup_attr = Attribution::default();
            g = Some(setup(cfg.seed, &mut setup_attr).map_err(|e| format!("set-up: {e}"))?);
            batch_ns += u64::try_from(setup_attr.op_ns()).unwrap_or(u64::MAX);
        }
        setup_ns.push(batch_ns / batch as u64);
        let g = g.expect("a batch holds at least one set-up");
        if searched.is_empty() {
            searched = g
                .points
                .iter()
                .map(|p| adapter::searched(&p.arch))
                .collect();
        }
        let owed = match round + 1 == rounds {
            true => min_ops.saturating_sub(phase.attempted as usize),
            false => 1,
        };
        phase.append(timed_phase(untraced_s / rounds as f64, owed, |ph| {
            pass(&g, &searched, ph, &mut accept, None)
        }));
        grid = Some(g);
    }
    let grid = grid.expect("at least one round");
    rep.meta_num("points", grid.points.len() as f64);
    rep.absorb(&phase);

    if cfg.trace {
        let mut attr = Attribution::default();
        accept = (0, 0);
        let traced = timed_phase(cfg.seconds / 2.0, 1, |ph| {
            pass(&grid, &searched, ph, &mut accept, Some(&mut attr))
        });
        rep.absorb(&traced);
        rep.attribution(&attr);
        rep.setup_attribution(&setup_attr, SETUP_LAYERS);
        let overhead = phase.ops_per_s() / traced.ops_per_s();
        rep.metric("trace_overhead_ratio", overhead, "ratio");
        rep.meta_num("trace_overhead_ratio", overhead);
        let loop_s = attr.self_ns("sim.loop") as f64 * 1e-9;
        let traced_cycles: u64 = match anneal {
            false => {
                // Every traced op re-ran a pinned point; sum its cycles.
                let per_pass: u64 = expect.iter().flatten().map(|o| o.cycles).sum();
                per_pass * traced.attempted / grid.points.len() as u64
            }
            true => 0,
        };
        rep.metric(
            "sim.cycles_per_s",
            if loop_s > 0.0 {
                traced_cycles as f64 / loop_s
            } else {
                0.0
            },
            "1/s",
        );
        rep.metric(
            "compiler.accept_ratio",
            if accept.1 > 0 {
                accept.0 as f64 / accept.1 as f64
            } else {
                0.0
            },
            "ratio",
        );
    }

    // After timing, the anneal workload's searched mappings are
    // simulated and golden-verified.
    let mut outcomes = expect;
    if anneal {
        let mut post = Phase::default();
        outcomes = (0..grid.points.len())
            .map(|i| {
                let f = first.get(i)?.as_ref()?;
                sim_op(&grid, i, &f.prog, None)
                    .map_err(|e| post.record(Err(format!("searched {e}"))))
                    .ok()
                    .map(|(o, _)| o)
            })
            .collect();
        rep.absorb(&post);
    }
    if outcomes.len() != grid.points.len() || outcomes.iter().any(Option::is_none) {
        return Err("a grid point never produced a verified result".to_string());
    }
    let cycles: u64 = outcomes.iter().flatten().map(|o| o.cycles).sum();
    let fires: u64 = outcomes.iter().flatten().map(|o| o.fires).sum();

    if cfg.trace {
        rep.metric("sim.fires", fires as f64, "count");
        let rerouted: u64 = first.iter().flatten().map(|s| s.rerouted).sum();
        rep.metric("compiler.rerouted", rerouted as f64, "count");
        let bytes = match anneal {
            false => grid.bytes,
            true => first.iter().flatten().map(|s| s.bits.len()).sum(),
        };
        rep.metric("isa.bytes", bytes as f64, "bytes");
    } else {
        rep.setup(&setup_ns);
        rep.throughput_and_latency(&phase);
        rep.metric("sim_cycles", cycles as f64, "cycles");
        rep.paper_gap(cfg.seed);
        rep.peak_rss();
    }
    Ok(())
}

/// Per-point cycles of one verified pass for `seed`: greedy mappings
/// (`searched == false`) or annealed ones. Used by the pin tests.
///
/// # Errors
/// Any set-up, compile or verification failure.
pub fn point_cycles(seed: u64, searched: bool) -> Result<Vec<(String, String, u64)>, String> {
    let grid = setup(seed, &mut Attribution::default())?;
    let mut out = Vec::new();
    for i in 0..grid.points.len() {
        let p = &grid.points[i];
        let prog = match searched {
            false => p.prog.clone(),
            true => anneal_compile(&grid, i, &adapter::searched(&p.arch), None)?.prog,
        };
        let (o, _) = sim_op(&grid, i, &prog, None)?;
        out.push((
            grid.kernels[p.kernel].tag.to_string(),
            p.arch.short.to_string(),
            o.cycles,
        ));
    }
    Ok(out)
}
