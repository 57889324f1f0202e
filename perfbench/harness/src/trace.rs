//! Outside-in attribution: per-layer self time, call counts and shares.
//!
//! Spans are taken by the workloads around calls into the stack (see
//! `adapter`); a layer's self time is its span minus the child spans the
//! workload also timed (e.g. the event loop is `run_full` minus the
//! machine build). Whatever part of an op no layer claims is
//! `unattributed`, so layer self times plus `unattributed` equal op time
//! by construction.

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f`, returning its result and wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, elapsed_ns(t))
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulated self time and calls per layer over a set of ops.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    self_ns: BTreeMap<&'static str, i128>,
    calls: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u128>,
    op_ns: i128,
    ops: u64,
}

impl Attribution {
    /// Charges `ns` of self time and one call to `layer`.
    pub fn charge(&mut self, layer: &'static str, ns: i128) {
        *self.self_ns.entry(layer).or_default() += ns;
        *self.calls.entry(layer).or_default() += 1;
    }

    /// Adds `v` to counter `name` (bytes, cycles, handler time).
    pub fn count(&mut self, name: &'static str, v: u128) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Counter `name`'s total.
    pub fn counter(&self, name: &str) -> u128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one whole op of `ns` (its layers are charged separately).
    pub fn op(&mut self, ns: u64) {
        self.op_ns += i128::from(ns);
        self.ops += 1;
    }

    /// Ops recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total op time, nanoseconds.
    pub fn op_ns(&self) -> i128 {
        self.op_ns
    }

    /// Op time no layer claimed, nanoseconds (negative when separately
    /// timed layer spans overshoot the op they are attributed to).
    pub fn unattributed_ns(&self) -> i128 {
        self.op_ns - self.self_ns.values().sum::<i128>()
    }

    /// Self time charged to `layer`, nanoseconds.
    pub fn self_ns(&self, layer: &str) -> i128 {
        self.self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Calls charged to `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.calls.get(layer).copied().unwrap_or(0)
    }

    /// Layers charged so far.
    pub fn layers(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.self_ns.keys().copied()
    }

    /// Folds another attribution (e.g. a second client's) into this one.
    pub fn merge(&mut self, other: &Attribution) {
        for (l, ns) in &other.self_ns {
            *self.self_ns.entry(l).or_default() += ns;
        }
        for (l, n) in &other.calls {
            *self.calls.entry(l).or_default() += n;
        }
        for (c, v) in &other.counters {
            *self.counters.entry(c).or_default() += v;
        }
        self.op_ns += other.op_ns;
        self.ops += other.ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_plus_unattributed_equal_op_time() {
        let mut a = Attribution::default();
        a.op(1000);
        a.charge("sim.loop", 700);
        a.charge("verify.golden", 250);
        let mut b = Attribution::default();
        b.op(500);
        b.charge("sim.loop", 480);
        b.count("sim.cycles", 7);
        a.merge(&b);
        assert_eq!(a.counter("sim.cycles"), 7);
        assert_eq!(a.ops(), 2);
        assert_eq!(a.unattributed_ns(), 70);
        let claimed: i128 = a.layers().map(|l| a.self_ns(l)).sum();
        assert_eq!(claimed + a.unattributed_ns(), a.op_ns());
        assert_eq!(a.calls("sim.loop"), 2);
        assert_eq!(a.calls("absent"), 0);
    }
}
