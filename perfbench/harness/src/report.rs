//! The result a run prints: a metadata line, then one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::stats::{median, Percentile, Samples};
use crate::trace::Attribution;
use crate::{Config, Phase};

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every op verified and nothing else failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(key, JSON value)` run metadata.
    pub meta: Vec<(String, String)>,
    /// Failure messages, printed to stderr.
    pub errors: Vec<String>,
}

impl Report {
    /// A report for `cfg` with the metadata every run records.
    pub fn new(cfg: &Config, threads: usize) -> Self {
        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        r.meta_str("workload", &format!("{:?}", cfg.workload).to_lowercase());
        r.meta_num("seed", cfg.seed as f64);
        r.meta_num("seconds", cfg.seconds);
        r.meta_num("trace", if cfg.trace { 1.0 } else { 0.0 });
        r.meta_num("nproc", nproc() as f64);
        r.meta_num("threads", threads as f64);
        r
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a numeric metadata entry.
    pub fn meta_num(&mut self, key: &str, v: f64) {
        self.meta.push((key.to_string(), num(v)));
    }

    /// Adds a string metadata entry.
    pub fn meta_str(&mut self, key: &str, v: &str) {
        self.meta
            .push((key.to_string(), format!("\"{}\"", escape(v))));
    }

    /// Records a failure that is not an op (set-up, post-run check).
    pub fn fail(&mut self, e: String) {
        self.correct = false;
        self.errors.push(e);
    }

    /// Folds a phase's op counts and failures in.
    pub fn absorb(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        if p.failed > 0 {
            self.correct = false;
        }
        self.errors.extend(p.errors.iter().cloned());
    }

    /// `setup_s`: the median of the set-up repeats.
    pub fn setup(&mut self, setup_ns: &[u64]) {
        let secs: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
        self.metric("setup_s", median(&secs), "s");
        let list: Vec<String> = secs.iter().map(|s| num(*s)).collect();
        self.meta.push((
            "setup_samples_s".to_string(),
            format!("[{}]", list.join(", ")),
        ));
    }

    /// `ops_per_s`, `lat_p50_ms`, `lat_p99_ms` and `ok_ratio` of an
    /// untraced phase, with the sample counts behind each percentile.
    pub fn throughput_and_latency(&mut self, p: &Phase) {
        self.metric("ops_per_s", p.ops_per_s(), "1/s");
        let lat = Samples::new(p.lat_ns.iter().map(|&ns| ns as f64 * 1e-6).collect());
        for (name, q) in [("lat_p50_ms", 0.50), ("lat_p99_ms", 0.99)] {
            match lat.percentile(q) {
                Ok(Percentile {
                    value,
                    samples,
                    beyond,
                }) => {
                    self.metric(name, value, "ms");
                    self.meta.push((
                        format!("{name}_samples"),
                        format!("{{\"samples\": {samples}, \"beyond\": {beyond}}}"),
                    ));
                }
                Err(e) => self.fail(format!("{name}: {e}")),
            }
        }
        let ok = p.attempted - p.failed;
        self.metric("ok_ratio", ok as f64 / p.attempted.max(1) as f64, "ratio");
        self.meta_num("ops", p.attempted as f64);
        self.meta_num("phase_wall_s", p.wall_ns as f64 * 1e-9);
    }

    /// `paper_gap` for `seed`, from the model's Fig. 17 geomeans.
    pub fn paper_gap(&mut self, seed: u64) {
        match crate::adapter::model_speedups(seed).and_then(|m| paper_gap(&m)) {
            Ok(g) => self.metric("paper_gap", g, "ratio"),
            Err(e) => self.fail(e),
        }
    }

    /// `peak_rss_mb` of this process.
    pub fn peak_rss(&mut self) {
        match peak_rss_mib() {
            Some(mb) => self.metric("peak_rss_mb", mb, "MiB"),
            None => self.fail("peak_rss_mb: /proc/self/status has no VmHWM".to_string()),
        }
    }

    /// Per-layer self time (ms per op), calls and share of op time for
    /// every op layer, then `unattributed_ms` and `op_ms`.
    pub fn attribution(&mut self, a: &Attribution) {
        let layers = crate::OP_LAYERS;
        let ops = a.ops().max(1) as f64;
        let op_ns = a.op_ns().max(1) as f64;
        for l in layers {
            let ns = a.self_ns(l) as f64;
            self.metric(&format!("{l}_ms"), ns * 1e-6 / ops, "ms/op");
            self.metric(&format!("{l}.calls"), a.calls(l) as f64, "count");
            self.metric(&format!("{l}.share"), ns / op_ns, "ratio");
        }
        for l in a.layers() {
            if !layers.contains(&l) {
                self.fail(format!("layer `{l}` charged but not reported"));
            }
        }
        let un = a.unattributed_ns() as f64;
        self.metric("unattributed_ms", un * 1e-6 / ops, "ms/op");
        self.metric("unattributed.share", un / op_ns, "ratio");
        self.metric("op_ms", op_ns * 1e-6 / ops, "ms/op");
        self.meta_num("traced_ops", a.ops() as f64);
    }

    /// The set-up attribution of a traced run: self ms per layer over
    /// one set-up, each `(layer, metric name)` pair reported by name.
    pub fn setup_attribution(&mut self, a: &Attribution, layers: &[(&'static str, &str)]) {
        for (l, name) in layers {
            self.metric(name, a.self_ns(l) as f64 * 1e-6, "ms");
        }
        self.metric(
            "setup.unattributed_ms",
            a.unattributed_ns() as f64 * 1e-6,
            "ms",
        );
        self.metric("setup.total_ms", a.op_ns() as f64 * 1e-6, "ms");
    }

    /// Reports every per-layer scalar this workload has no layer for as
    /// zero, so each traced run carries the same metric set.
    pub fn zero_missing_layers(&mut self) {
        for (name, unit) in crate::LAYER_SCALARS {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    /// Prints the metadata line and the result line.
    pub fn print(&self) {
        for e in &self.errors {
            eprintln!("perfbench: {e}");
        }
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        println!("{{\"meta\": {{{}}}}}", meta.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The geomean over the paper's SOTA baselines of |ln(model speedup ÷
/// paper speedup)|, from the model's geomean speedup of Marionette over
/// each baseline.
///
/// # Errors
/// A baseline the model has no speedup for.
pub fn paper_gap(model: &[(String, f64)]) -> Result<f64, String> {
    let mut ln_sum = 0.0;
    for (base, paper) in crate::adapter::PAPER_SPEEDUPS {
        let m = model
            .iter()
            .find_map(|(b, s)| (b == base).then_some(*s))
            .ok_or_else(|| format!("paper_gap: no model speedup over {base}"))?;
        ln_sum += (m / paper).ln().abs().ln();
    }
    Ok((ln_sum / crate::adapter::PAPER_SPEEDUPS.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gap_is_the_geomean_of_log_gaps() {
        let e = std::f64::consts::E;
        let model = |f: [f64; 4]| -> Vec<(String, f64)> {
            crate::adapter::PAPER_SPEEDUPS
                .iter()
                .zip(f)
                .map(|((b, p), f)| (b.to_string(), p * f))
                .collect()
        };
        // |ln| of e and 1/e is 1: the gap is 1 whichever side the model is.
        let gap = paper_gap(&model([e, 1.0 / e, e, e])).unwrap();
        assert!((gap - 1.0).abs() < 1e-12);
        let gap = paper_gap(&model([e, e.powi(4), e, e])).unwrap();
        assert!((gap - 2f64.powf(0.5)).abs() < 1e-12);
        assert!(paper_gap(&model([e; 4])[1..]).is_err());
    }
}
