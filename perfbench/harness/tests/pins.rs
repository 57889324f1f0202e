//! Cross-checks the benchmark's grid against the repository's committed
//! `BENCH_sim.json` pins for seed 1: the `sweep` workload's per-point
//! cycles must equal `cycles`, the `anneal` workload's `cycles_search`.
//!
//! Run with `cargo test --release` (the grid is 126 simulations).

use perfbench::grid::point_cycles;
use std::collections::HashMap;

/// `(kernel, arch) -> (cycles, cycles_search)` from the committed pins.
fn pins() -> HashMap<(String, String), (u64, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is committed");
    let str_field = |line: &str, key: &str| -> String {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1).expect(key);
        rest.split('"').next().expect(key).to_string()
    };
    let num_field = |line: &str, key: &str| -> u64 {
        let rest = line.split(&format!("\"{key}\": ")).nth(1).expect(key);
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect(key)
    };
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"kernel\""))
        .map(|l| {
            (
                (str_field(l, "kernel"), str_field(l, "arch")),
                (num_field(l, "cycles"), num_field(l, "cycles_search")),
            )
        })
        .collect()
}

fn check(searched: bool) {
    let pins = pins();
    assert_eq!(pins.len(), 126, "BENCH_sim.json holds the full grid");
    let got = point_cycles(1, searched).expect("every point verifies");
    assert_eq!(got.len(), pins.len());
    let mut wrong = Vec::new();
    for (kernel, arch, cycles) in &got {
        let (greedy, search) = pins[&(kernel.clone(), arch.clone())];
        let want = if searched { search } else { greedy };
        if *cycles != want {
            wrong.push(format!("{kernel}:{arch} {cycles} != {want}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of 126 points differ: {wrong:?}",
        wrong.len()
    );
}

#[test]
fn sweep_cycles_match_bench_sim_pins() {
    check(false);
}

#[test]
fn anneal_cycles_match_bench_sim_search_pins() {
    check(true);
}
