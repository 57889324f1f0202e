//! The trace plane's contract: tracing is an observer, never an actor.
//!
//! A traced run must be bit-identical to the untraced run it observes
//! (same cycles, same full stats), the exported Chrome trace JSON must
//! be byte-for-byte deterministic for a fixed seed, and the committed
//! example trace in `examples/traces/` must validate against the schema
//! documented in `docs/OBSERVABILITY.md`.

use marionette::arch::marionette_full;
use marionette::kernels::by_short;
use marionette::kernels::traits::Kernel;
use marionette::kernels::traits::Scale;
use marionette::runner::{run_kernel, run_kernel_faulted, KernelRun};
use marionette::sim::{trace, FaultSet, Tracer};

const MAX_CYCLES: u64 = 500_000_000;

/// `k` at Tiny scale, seed 7, on the full Marionette preset, recorded
/// into `tracer`.
fn traced_run(k: &dyn Kernel, tracer: &mut Tracer) -> KernelRun {
    run_kernel_faulted(
        k,
        &marionette_full(),
        Scale::Tiny,
        7,
        MAX_CYCLES,
        &FaultSet::none(),
        Some(tracer),
    )
    .expect("traced run")
    .run
}

/// Tracing must not perturb the simulation: the traced run reports the
/// same cycles and the same full stats (every per-PE, per-group, and
/// per-route counter) as the untraced run.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let k = by_short("CRC").expect("kernel tag");
    let plain = run_kernel(k.as_ref(), &marionette_full(), Scale::Tiny, 7, MAX_CYCLES)
        .expect("untraced run");
    let mut tracer = Tracer::new();
    let traced = traced_run(k.as_ref(), &mut tracer);
    assert_eq!(plain.cycles, traced.cycles, "cycles diverge");
    assert_eq!(plain.stats, traced.stats, "stats diverge");
    assert!(traced.verified, "traced run must still verify");
    assert!(!tracer.is_empty(), "tracer saw no events");
}

/// Same kernel and seed ⇒ byte-identical trace JSON. The trace is
/// evidence; it must not wobble between runs.
#[test]
fn trace_json_is_deterministic() {
    let k = by_short("CRC").expect("kernel tag");
    let dump = || {
        let mut tracer = Tracer::new();
        traced_run(k.as_ref(), &mut tracer);
        tracer.to_chrome_json()
    };
    let (a, b) = (dump(), dump());
    assert_eq!(a, b, "same seed must produce identical bytes");
}

/// A fresh trace must round-trip through the parser the trace tooling
/// uses, with every track and event intact.
#[test]
fn fresh_trace_parses_and_attributes_stalls() {
    let k = by_short("MS").expect("kernel tag");
    let mut tracer = Tracer::new();
    traced_run(k.as_ref(), &mut tracer);
    let parsed = trace::parse(&tracer.to_chrome_json()).expect("fresh trace parses");
    assert_eq!(parsed.events.len(), tracer.len());
    assert!(parsed.last_cycle() > 0);
    let uniq: std::collections::HashSet<&String> = parsed.tracks.iter().collect();
    assert_eq!(uniq.len(), parsed.tracks.len(), "duplicate track names");
    assert_eq!(parsed.stall_by_track().len(), parsed.tracks.len());
}

/// The committed example trace (the `crc` example program on the 4×4 M
/// preset, regenerated via `marc examples/crc.mar --presets M --fabric
/// 4x4 --trace ...`) must validate against the documented schema: the
/// envelope, the metadata/track discipline, and the event grammar are
/// all enforced by [`trace::parse`].
#[test]
fn committed_example_trace_validates_against_schema() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/traces/crc_M_4x4.trace.json"
    );
    let text = std::fs::read_to_string(path).expect("committed example trace exists");
    let parsed = trace::parse(&text).unwrap_or_else(|e| panic!("example trace invalid: {e}"));
    assert!(!parsed.events.is_empty(), "example trace has no events");
    // The documented track families a healthy M-preset run exercises
    // must all be present (tracks materialize on first use, so a run
    // with no group switches or remap marks has no ccu/marks track).
    for needle in ["pe 0,0 data", "pe 0,0 ctrl", "link ", "mem "] {
        assert!(
            parsed.tracks.iter().any(|t| t.contains(needle)),
            "no `{needle}` track in {:?}",
            parsed.tracks
        );
    }
    for counter in ["queue depth", "flits in flight"] {
        assert!(
            parsed.tracks.iter().any(|t| t == counter),
            "missing counter track `{counter}`"
        );
    }
    // Every event cites a real track, and time never runs backwards
    // past the recorded end of the run.
    let last = parsed.last_cycle();
    for e in &parsed.events {
        assert!((e.track as usize) < parsed.tracks.len());
        assert!(e.ts + e.dur <= last);
    }
}
