//! One self-heal policy, every layer: the kernel runner, the `.mar`
//! driver and `mard` all route a faulted run through
//! `marionette::runner::self_heal`, so the same program on the same
//! damaged fabric must wedge, remap and measure identically in each.

mod common;

use common::run;
use marionette::arch::marionette_full;
use marionette::kernels::by_short;
use marionette::kernels::traits::Scale;
use marionette::runner::run_kernel_faulted;
use marionette::sim::{trace, FaultSet, Tracer};
use marionette_lang::driver::{
    frontend, reference, run_preset_faulted, FaultRun, DEFAULT_MAX_CYCLES, INTERP_BUDGET,
};
use marionette_serve::{ServeConfig, Server};

const DEAD: &str = "pe:0,0";

fn dead_anchor() -> FaultSet {
    let arch = marionette_full();
    let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
    faults.add(DEAD.parse().unwrap()).unwrap();
    faults
}

/// The runner (golden oracle) and the driver (interpreter oracle) heal
/// CRC on the same CDFG to the same remap: same wedge, same cycles,
/// same stats.
#[test]
fn runner_and_driver_heal_the_same_kernel_identically() {
    let k = by_short("CRC").expect("kernel tag");
    let arch = marionette_full();
    let faults = dead_anchor();
    let kr = run_kernel_faulted(
        k.as_ref(),
        &arch,
        Scale::Tiny,
        7,
        DEFAULT_MAX_CYCLES,
        &faults,
        None,
    )
    .expect("runner heals");
    assert_eq!(kr.wedged.as_deref(), Some(DEAD));
    assert!(kr.remapped);

    let g = k.build(&k.workload(Scale::Tiny, 7)).expect("CRC builds");
    let r = reference(&g, &[], INTERP_BUDGET).expect("reference");
    let dr: FaultRun = run_preset_faulted(&g, &r, &arch, &[], DEFAULT_MAX_CYCLES, &faults, None)
        .expect("driver heals");
    assert_eq!(dr.wedged, kr.wedged);
    assert_eq!(dr.remapped, kr.remapped);
    let (d, s) = (&dr.run, &kr.run.stats);
    assert_eq!(d.cycles, kr.run.cycles);
    assert_eq!(
        (
            d.fires,
            d.link_stall_cycles,
            d.switch_stall_cycles,
            d.group_switches
        ),
        (
            s.fires,
            s.link_stall_cycles,
            s.switch_stall_cycles,
            s.group_switches
        )
    );
}

/// The driver and `mard` heal the same `.mar` program identically.
#[test]
fn driver_and_mard_heal_the_same_program_identically() {
    let src = include_str!("../../../examples/crc.mar");
    let (_, g) = frontend(src).expect("example parses");
    let r = reference(&g, &[], INTERP_BUDGET).expect("reference");
    let dr = run_preset_faulted(
        &g,
        &r,
        &marionette_full(),
        &[],
        DEFAULT_MAX_CYCLES,
        &dead_anchor(),
        None,
    )
    .expect("driver heals");
    assert_eq!(dr.wedged.as_deref(), Some(DEAD));

    let s = Server::start(ServeConfig::default()).expect("bind");
    let (status, body) = run(s.addr(), "preset=M&fault=pe:0,0", src);
    s.stop();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"wedged\": \"pe:0,0\""), "{body}");
    assert!(body.contains("\"remapped\": true"), "{body}");
    assert!(
        body.contains(&format!("\"cycles\": {},", dr.run.cycles)),
        "{body}"
    );
}

/// A traced heal records exactly one `remap after <resource>` mark and
/// does not change the measurement.
#[test]
fn traced_heal_marks_the_remap_once() {
    let k = by_short("CRC").expect("kernel tag");
    let arch = marionette_full();
    let faults = dead_anchor();
    let run = |tracer: Option<&mut Tracer>| {
        run_kernel_faulted(
            k.as_ref(),
            &arch,
            Scale::Tiny,
            7,
            DEFAULT_MAX_CYCLES,
            &faults,
            tracer,
        )
        .expect("heals")
    };
    let plain = run(None);
    let mut tracer = Tracer::new();
    let traced = run(Some(&mut tracer));
    assert_eq!(traced.run.cycles, plain.run.cycles);
    assert_eq!(traced.run.stats, plain.run.stats);
    let parsed = trace::parse(&tracer.to_chrome_json()).expect("trace parses");
    let marks = parsed
        .events
        .iter()
        .filter(|e| e.ph == 'i' && e.name == "remap after pe:0,0")
        .count();
    assert_eq!(marks, 1);
}
