//! Cache determinism: the content-addressed key must be insensitive to
//! formatting and sim-time inputs, sensitive to everything that changes
//! a bitstream, and a cached serve must be bit-identical to a cold one.

mod common;

use common::{http, result_line, run};
use marionette_serve::{ServeConfig, Server};

const BASE: &str = "\
program acc;
param n: i32 = 6;
let s = for i in 0..8 with a = 0 {
  yield a + i * n;
};
sink s = s;
";

/// Same program, different whitespace, comments, and spacing — the
/// canonical pretty-print (parse→print fixed point) must erase all of it.
const RESTYLED: &str = "\
// A differently-formatted copy of `acc`: comments added, indentation
// mangled, blank lines inserted. Same program.
program acc;

param n : i32 = 6;   // the scale factor

let s = for i in 0..8 with a = 0 {
      yield a + i*n;  // accumulate
};

sink s = s;
";

fn extract_address(body: &str) -> &str {
    let marker = "\"address\": \"";
    let at = body.find(marker).expect("cache address in body") + marker.len();
    &body[at..at + 16]
}

#[test]
fn whitespace_and_comment_changes_hit_the_same_entry() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (status, cold) = run(s.addr(), "preset=M", BASE);
    assert_eq!(status, 200, "{cold}");
    assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
    let (status, warm) = run(s.addr(), "preset=M", RESTYLED);
    assert_eq!(status, 200, "{warm}");
    assert!(
        warm.contains("\"outcome\": \"hit\""),
        "restyled source must hit the canonical-key entry: {warm}"
    );
    assert_eq!(extract_address(&cold), extract_address(&warm));
    assert_eq!(result_line(&cold), result_line(&warm));
    s.stop();
}

#[test]
fn different_params_share_the_bitstream() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (_, cold) = run(s.addr(), "preset=M", BASE);
    assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
    // Fresh parameters are a sim-time input: the compile must be reused
    // (hit), while the result reflects the new n.
    let (status, warm) = run(s.addr(), "preset=M&param=n%3D7", BASE);
    assert_eq!(status, 200, "{warm}");
    assert!(warm.contains("\"outcome\": \"hit\""), "{warm}");
    assert!(warm.contains("\"sinks\": {\"s\": [196]}"), "{warm}");
    assert_eq!(extract_address(&cold), extract_address(&warm));
    s.stop();
}

#[test]
fn cached_serve_is_bit_identical_to_cold_on_every_preset() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let mut addresses = std::collections::HashSet::new();
    for arch in marionette_arch::all_presets() {
        let q = format!("preset={}", arch.short);
        let (status, cold) = run(s.addr(), &q, BASE);
        assert_eq!(status, 200, "cold {}: {cold}", arch.short);
        assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
        let (status, warm) = run(s.addr(), &q, BASE);
        assert_eq!(status, 200, "warm {}: {warm}", arch.short);
        assert!(warm.contains("\"outcome\": \"hit\""), "{warm}");
        assert_eq!(
            result_line(&cold),
            result_line(&warm),
            "cached result differs from cold on {}",
            arch.short
        );
        // Every preset is a distinct cache entry.
        assert!(
            addresses.insert(extract_address(&cold).to_string()),
            "address collision between presets at {}",
            arch.short
        );
    }
    s.stop();
}

#[test]
fn lru_bound_evicts_and_counts() {
    let s = Server::start(ServeConfig {
        cache_cap: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    // Three distinct programs through a 2-entry cache.
    for tag in 1..=3 {
        let src = BASE.replace("i * n", &format!("i * n * {tag}"));
        let (status, body) = run(s.addr(), "preset=M", &src);
        assert_eq!(status, 200, "{body}");
    }
    let (_, stats) = http(s.addr(), "GET", "/stats", b"");
    assert!(stats.contains("\"inserts\": 3"), "{stats}");
    assert!(stats.contains("\"evictions\": 1"), "{stats}");
    assert!(stats.contains("\"entries\": 2"), "{stats}");
    s.stop();
}

#[test]
fn fault_sets_key_separately_and_replay_reports_remap() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (_, healthy) = run(s.addr(), "preset=M", BASE);
    // A faulted request is a different artifact (possibly remapped) —
    // it must not share the healthy entry.
    let (status, faulted) = run(s.addr(), "preset=M&fault=pe:1,1", BASE);
    assert_eq!(status, 200, "{faulted}");
    assert!(faulted.contains("\"outcome\": \"miss\""), "{faulted}");
    assert_ne!(extract_address(&healthy), extract_address(&faulted));
    // Replay: the cached artifact carries its wedged/remapped metadata.
    let (status, replay) = run(s.addr(), "preset=M&fault=pe:1,1", BASE);
    assert_eq!(status, 200, "{replay}");
    assert!(replay.contains("\"outcome\": \"hit\""), "{replay}");
    let meta = |b: &str| {
        (
            b.lines()
                .find(|l| l.trim_start().starts_with("\"wedged\":"))
                .map(str::to_string),
            b.contains("\"remapped\": true"),
        )
    };
    assert_eq!(meta(&faulted), meta(&replay));
    assert_eq!(result_line(&faulted), result_line(&replay));
    s.stop();
}
