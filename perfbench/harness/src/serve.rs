//! The `serve` workload: an in-process `mard` as it ships
//! (`ServeConfig::default()`: two workers, a 64-entry compile cache)
//! under a closed loop of [`CLIENTS`] clients, each sending its next
//! `POST /run` only after reading the previous response, one connection
//! per request.
//!
//! Traffic is a stream of fuzz-generated programs; program `i` of the
//! pool is served on preset `i mod 3` of M, DF, RT. One request in
//! [`FRESH_EVERY`] submits the next program of the stream, which misses,
//! compiles and inserts. The others re-run, round robin and with a fresh
//! whitespace/comment restyle, one of the [`WINDOW`] programs submitted
//! last, so they hit the canonical-key cache: each program is submitted
//! once, re-run about nine times, then left. The window fits the shipped
//! cache: between two re-runs of a program, at most `WINDOW - 1` other
//! window programs and `WINDOW / 9 + 1` new ones are touched, fewer than
//! 64 entries, so LRU evicts only programs that left the window.
//!
//! Set-up (`setup_s`) is `Server::start` plus the cold fill that compiles
//! the current window once. An untraced run sets up a new server in each
//! of its rounds, and each round starts at its own, fixed point of the
//! stream.
//!
//! Every response is bit-verified from outside. A program's first result
//! must carry the sink streams of the reference interpreter, run offline
//! before timing, and every later result must equal it byte for byte.
//! After timing, every program is compiled and simulated again through
//! the public calls; the simulator's own sink streams must equal the
//! reference's, and its cycles and fires the served result's.

use crate::adapter::{self, Architecture, CompileCache, Server, ServerState, SERVE_PRESETS};
use crate::report::Report;
use crate::trace::{elapsed_ns, timed, Attribution};
use crate::{Config, Deadline, Phase};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Programs re-run at any time: the ones submitted last.
pub const WINDOW: usize = 48;
/// One request in this many submits a new program.
pub const FRESH_EVERY: u64 = 10;
/// Distinct programs, generated before timing; the stream cycles through
/// them. The cache holds far fewer, so a recycled one has long been
/// evicted and misses again.
pub const POOL: usize = 1024;

/// Set-up layers and the metric each is reported as.
const SETUP_LAYERS: &[(&str, &str)] = &[
    ("serve.start", "setup.serve.start_ms"),
    ("serve.fill", "setup.serve.fill_ms"),
];

/// One corpus program with its offline reference outputs.
struct Program {
    src: String,
    /// Index into [`SERVE_PRESETS`].
    preset: usize,
    /// The reference interpreter's sinks, rendered as `mard` renders
    /// them.
    sinks: String,
}

/// Derives the fuzz seed of corpus entry `i` in stream `stream`, so
/// nearby run seeds share no programs.
fn corpus_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn program(fuzz_seed: u64, preset: usize, budget: u64) -> Result<Program, String> {
    let src = adapter::fuzz_source(fuzz_seed);
    let (g, _) = adapter::frontend(&src).map_err(|e| format!("fuzz {fuzz_seed}: {e}"))?;
    let r = adapter::reference(&g, budget).map_err(|e| format!("fuzz {fuzz_seed}: {e}"))?;
    Ok(Program {
        sinks: adapter::reference_sinks_json(&r),
        src,
        preset,
    })
}

/// A whitespace/comment restyle of `src`: the same canonical program.
fn restyle(src: &str, salt: u64) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    out.push_str(&format!("// request {salt}: formatting only\n"));
    for (i, line) in src.lines().enumerate() {
        if (salt + i as u64).is_multiple_of(3) {
            out.push_str("  ");
        }
        out.push_str(line);
        if (salt + i as u64) % 4 == 1 {
            out.push_str("   // restyled");
        }
        out.push('\n');
    }
    out
}

/// Stream position `q` of the program request `n` sends, and whether
/// the request re-runs it (restyled) or submits it.
fn shot(n: u64) -> (u64, bool) {
    let w = WINDOW as u64;
    let submitted = n / FRESH_EVERY;
    if n % FRESH_EVERY == FRESH_EVERY - 1 {
        return (w + submitted, false);
    }
    // Round robin over the window's slots; slot `s` holds the newest
    // program whose position is `s` mod the window.
    let newest = w - 1 + submitted;
    let slot = (n - submitted) % w;
    (newest - (newest - slot) % w, true)
}

/// Stream positions of the window before request `n`.
fn window(n: u64) -> std::ops::Range<u64> {
    let first = n / FRESH_EVERY;
    first..first + WINDOW as u64
}

/// Sends one `POST /run` on a fresh connection and reads the whole
/// response.
fn send(addr: SocketAddr, tag: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    s.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    s.set_write_timeout(timeout).map_err(|e| e.to_string())?;
    let head = format!(
        "POST /run?preset={tag} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    s.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| e.to_string())?;
    let text = String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())?;
    let (h, body) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status = h
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, body.to_string()))
}

/// The `"result": {...}` object of a 200 `/run` body.
fn result_of(status: u16, body: &str) -> Result<&str, String> {
    if status != 200 {
        let head: String = body.chars().take(160).collect();
        return Err(format!("status {status}: {head}"));
    }
    body.lines()
        .find_map(|l| l.trim_start().strip_prefix("\"result\": "))
        .ok_or_else(|| "no result in response".to_string())
}

/// Reads integer field `key` of a result object.
fn field(result: &str, key: &str) -> Result<u64, String> {
    result
        .split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("result has no `{key}`"))
}

/// Checks a fresh result against the reference interpreter's outputs.
fn check_against_reference(result: &str, p: &Program) -> Result<(), String> {
    if !result.contains("\"verified\": true") {
        return Err("result not verified by the server".to_string());
    }
    let sinks = result
        .split_once("\"sinks\": ")
        .and_then(|(_, s)| s.strip_suffix('}'))
        .ok_or("result has no sinks")?;
    if sinks != p.sinks {
        return Err(format!("sinks {sinks} differ from reference {}", p.sinks));
    }
    Ok(())
}

/// The inputs of a run, generated before anything is timed.
struct Corpus {
    pool: Vec<Program>,
    presets: Vec<Architecture>,
}

impl Corpus {
    fn program(&self, q: u64) -> &Program {
        &self.pool[(q % POOL as u64) as usize]
    }

    /// The preset tag and body request `n` sends.
    fn request(&self, n: u64) -> (u64, &'static str, String) {
        let (q, rerun) = shot(n);
        let p = self.program(q);
        let body = match rerun {
            true => restyle(&p.src, n),
            false => p.src.clone(),
        };
        (q, SERVE_PRESETS[p.preset], body)
    }
}

/// What the client loop shares.
struct Shared<'a> {
    corpus: &'a Corpus,
    /// Each pool program's first verified result.
    seen: Mutex<Vec<Option<String>>>,
    /// Next request number.
    next: AtomicU64,
}

impl Shared<'_> {
    /// A program's first result must match the reference; every later
    /// one must equal the first.
    fn verify(&self, q: u64, result: &str) -> Result<(), String> {
        let i = (q % POOL as u64) as usize;
        let mut seen = self.seen.lock().expect("no client panics holding it");
        match &seen[i] {
            Some(first) if first == result => Ok(()),
            Some(_) => Err(format!(
                "program {i}: result differs from its first serving"
            )),
            None => {
                check_against_reference(result, &self.corpus.pool[i])
                    .map_err(|e| format!("program {i}: {e}"))?;
                seen[i] = Some(result.to_string());
                Ok(())
            }
        }
    }
}

/// `Server::start` plus the cold fill of the window before request `n`;
/// charges both to `attr`.
fn setup(sh: &Shared, n: u64, attr: &mut Attribution) -> Result<Server, String> {
    let t0 = Instant::now();
    let (server, start_ns) = timed(|| adapter::start_server(adapter::serve_config()));
    attr.charge("serve.start", i128::from(start_ns));
    let server = server.map_err(|e| format!("server start: {e}"))?;
    let t = Instant::now();
    for q in window(n) {
        let p = sh.corpus.program(q);
        let (status, body) = send(server.addr(), SERVE_PRESETS[p.preset], &p.src)?;
        let result = result_of(status, &body).map_err(|e| format!("cold {q}: {e}"))?;
        sh.verify(q, result).map_err(|e| format!("cold {q}: {e}"))?;
    }
    attr.charge("serve.fill", i128::from(elapsed_ns(t)));
    attr.op(elapsed_ns(t0));
    Ok(server)
}

/// Sends request `n`, verifies the response, and returns the client-side
/// latency.
fn serve_op(sh: &Shared, addr: SocketAddr, n: u64) -> Result<u64, String> {
    let (q, tag, body) = sh.corpus.request(n);
    let t0 = Instant::now();
    let sent = send(addr, tag, &body);
    let lat_ns = elapsed_ns(t0);
    let (status, resp) = sent?;
    let result = result_of(status, &resp).map_err(|e| format!("request {n}: {e}"))?;
    sh.verify(q, result)?;
    Ok(lat_ns)
}

/// Runs the closed loop for `seconds`. Returns the phase and the
/// `(request, latency)` of every verified request.
fn closed_loop(
    sh: &Shared,
    addr: SocketAddr,
    seconds: f64,
    min_ops: usize,
) -> (Phase, Vec<(u64, u64)>) {
    let dl = Deadline::new(seconds, min_ops);
    let first = sh.next.load(Ordering::Relaxed);
    let mut phase = Phase::default();
    let mut served = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Phase::default();
                    let mut log = Vec::new();
                    while dl.more(sh.next.load(Ordering::Relaxed) - first) {
                        let n = sh.next.fetch_add(1, Ordering::Relaxed);
                        let out = serve_op(sh, addr, n);
                        if let Ok(lat_ns) = out {
                            log.push((n, lat_ns));
                        }
                        mine.record(out);
                    }
                    (mine, log)
                })
            })
            .collect();
        for c in clients {
            let (p, log) = c.join().expect("client thread");
            phase.merge(p);
            served.extend(log);
        }
    });
    phase.wall_ns = dl.elapsed_ns();
    served.sort_unstable();
    (phase, served)
}

/// Traced attribution of request `n`, after the loop has stopped: the
/// same request is routed socketless through the twin state (handler
/// time), then its layers are re-run one public call at a time. `scratch`
/// takes the replayed misses' inserts, away from the twin.
fn attribute(
    sh: &Shared,
    twin: &ServerState,
    scratch: &CompileCache,
    (n, lat_ns): (u64, u64),
    a: &mut Attribution,
) -> Result<(), String> {
    let (q, tag, body) = sh.corpus.request(n);
    let prog = sh.corpus.program(q);
    let req = adapter::run_request(tag, &body);
    let ((status, twin_body, hit), handler_ns) = timed(|| adapter::route(twin, &req));
    let twin_result = result_of(status, &twin_body).map_err(|e| format!("twin: {e}"))?;
    // Cycles, fires and sinks must match; only the cache outcome may
    // differ between the server and its twin.
    sh.verify(q, twin_result)
        .map_err(|e| format!("twin: {e}"))?;
    let defaults = adapter::serve_config();
    let arch = &sh.corpus.presets[prog.preset];
    let (decoded, options_ns) = timed(|| adapter::decode_options(twin, &req));
    decoded?;
    let (front, fe_ns) = timed(|| adapter::frontend(&body));
    let (g, canonical) = front?;
    let (reference, ref_ns) = timed(|| adapter::reference(&g, defaults.interp_budget));
    let reference = reference?;
    let (cached, lookup_ns) = timed(|| adapter::cache_lookup(twin, &canonical, arch));
    let (compiled, compile_ns, insert_ns) = match (hit, cached) {
        (Some(true), Some(art)) => (art.compiled.clone(), 0, 0),
        _ => {
            let (c, compile_ns) = timed(|| adapter::compile_artifact(&g, arch));
            let c = c?;
            let ((), insert_ns) = timed(|| adapter::cache_insert(scratch, &canonical, arch, &c));
            (c, compile_ns, insert_ns)
        }
    };
    let max_cycles = defaults.max_cycles;
    let (run, verified_ns) =
        timed(|| adapter::simulate_verified(&g, &reference, arch, &compiled, max_cycles));
    run?;
    let inputs = adapter::cdfg_inputs(&g);
    let (r, run_ns) =
        timed(|| adapter::simulate(&compiled.prog, &arch.tm, &inputs, &[], max_cycles));
    let r = r.map_err(|e| format!("replay: {e}"))?;
    let (built, build_ns) = timed(|| adapter::build_machine(&compiled.prog, &arch.tm, &inputs));
    built?;
    if adapter::reference_sinks_json(&reference) != prog.sinks {
        return Err("replayed reference differs from the offline one".to_string());
    }
    let ns = i128::from;
    a.op(lat_ns);
    a.charge("serve.outside_handler", ns(lat_ns) - ns(handler_ns));
    a.charge("lang.frontend", ns(fe_ns));
    a.charge("cdfg.reference", ns(ref_ns));
    a.charge("serve.options", ns(options_ns));
    a.charge("serve.cache", ns(lookup_ns) + ns(insert_ns));
    if compile_ns > 0 {
        a.charge("compiler.compile", ns(compile_ns));
        a.count("isa.bytes", compiled.bitstream.len() as u128);
    }
    a.charge("sim.build", ns(build_ns));
    a.charge("sim.loop", ns(run_ns) - ns(build_ns));
    a.charge("verify.reference", ns(verified_ns) - ns(run_ns));
    a.count("serve.handler_ns", u128::from(handler_ns));
    a.count("sim.cycles", u128::from(r.stats.cycles));
    Ok(())
}

/// Compiles and simulates every pool program again, outside the server,
/// and checks the simulator's sinks against the reference and its cycles
/// and fires against the served result.
fn resimulate(sh: &Shared) -> Result<(), String> {
    let max_cycles = adapter::serve_config().max_cycles;
    let seen = sh.seen.lock().expect("clients joined");
    for (i, (p, served)) in sh.corpus.pool.iter().zip(seen.iter()).enumerate() {
        let served = served
            .as_deref()
            .ok_or(format!("program {i} was never served"))?;
        let arch = &sh.corpus.presets[p.preset];
        let (g, _) = adapter::frontend(&p.src)?;
        let compiled = adapter::compile_artifact(&g, arch)?;
        let inputs = adapter::cdfg_inputs(&g);
        let r = adapter::simulate(&compiled.prog, &arch.tm, &inputs, &[], max_cycles)
            .map_err(|e| format!("program {i}: simulate: {e}"))?;
        let sinks = adapter::sim_sinks_json(&r);
        if sinks != p.sinks {
            return Err(format!(
                "program {i}: simulated sinks {sinks} differ from reference {}",
                p.sinks
            ));
        }
        for (key, v) in [("cycles", r.stats.cycles), ("fires", r.stats.fires)] {
            if field(served, key)? != v {
                return Err(format!(
                    "program {i}: served {key} differ from a fresh simulation"
                ));
            }
        }
    }
    Ok(())
}

/// Runs the `serve` workload per `cfg`.
pub fn run(cfg: &Config) -> Report {
    let workers = adapter::serve_config().workers;
    let mut rep = Report::new(cfg, workers + CLIENTS);
    rep.meta_num("workers", workers as f64);
    rep.meta_num("clients", CLIENTS as f64);
    rep.meta_num("cache_cap", adapter::serve_config().cache_cap as f64);
    if let Err(e) = run_inner(cfg, &mut rep) {
        rep.fail(e);
    }
    rep
}

fn run_inner(cfg: &Config, rep: &mut Report) -> Result<(), String> {
    let budget = adapter::serve_config().interp_budget;
    let corpus = Corpus {
        pool: (0..POOL)
            .map(|i| {
                program(
                    corpus_seed(cfg.seed, 1, i as u64),
                    i % SERVE_PRESETS.len(),
                    budget,
                )
            })
            .collect::<Result<_, _>>()?,
        presets: SERVE_PRESETS
            .iter()
            .map(|t| adapter::preset(t))
            .collect::<Result<_, _>>()?,
    };
    let sh = Shared {
        corpus: &corpus,
        seen: Mutex::new(vec![None; POOL]),
        next: AtomicU64::new(0),
    };

    // Untraced phase, in rounds. The first set-up of round 0 starts the
    // server the whole run is served by; every other set-up is the same
    // work on a server of its own, stopped again at once, so the samples
    // spread over the run. Round `r` fills the window at program
    // `r * stride` of the stream, so each sample is the same work on
    // every run of a seed. The stream itself runs on across rounds and
    // covers the whole pool.
    let rounds = cfg.rounds();
    let untraced_s = match cfg.trace {
        true => cfg.seconds / 2.0,
        false => cfg.seconds,
    };
    let stride = POOL.div_ceil(rounds) as u64;
    let min_ops = FRESH_EVERY as usize * POOL;
    let mut setup_ns = Vec::new();
    let mut setup_attr = Attribution::default();
    let mut phase = Phase::default();
    let mut server: Option<Server> = None;
    let batch = cfg.setup_batch();
    for round in 0..rounds {
        let mut batch_ns = 0;
        for _ in 0..batch {
            let mut attr = Attribution::default();
            let s = setup(&sh, FRESH_EVERY * stride * round as u64, &mut attr)?;
            batch_ns += u64::try_from(attr.op_ns()).unwrap_or(u64::MAX);
            match &server {
                None => {
                    setup_attr = attr;
                    server = Some(s);
                }
                Some(_) => adapter::stop_server(s),
            }
        }
        setup_ns.push(batch_ns / batch as u64);
        let owed = match round + 1 == rounds {
            true => min_ops.saturating_sub(phase.attempted as usize),
            false => 1,
        };
        let addr = server.as_ref().expect("set up in round 0").addr();
        let (ph, _) = closed_loop(&sh, addr, untraced_s / rounds as f64, owed);
        phase.append(ph);
    }
    let server = server.expect("at least one round");
    rep.absorb(&phase);

    if cfg.trace {
        let state = server.state().clone();
        let before = adapter::cache_stats(&state);
        let first = sh.next.load(Ordering::Relaxed);
        let (traced, served) = closed_loop(&sh, server.addr(), cfg.seconds / 2.0, 1);
        let after = adapter::cache_stats(&state);
        rep.absorb(&traced);
        // The loop has stopped: route the same requests through a
        // socketless twin that holds the same window, and replay them.
        let twin = adapter::socketless_state(adapter::serve_config());
        for q in window(first) {
            let p = corpus.program(q);
            let req = adapter::run_request(SERVE_PRESETS[p.preset], &p.src);
            let (status, body, _) = adapter::route(&twin, &req);
            sh.verify(q, result_of(status, &body)?)
                .map_err(|e| format!("twin cold fill: {e}"))?;
        }
        let scratch = adapter::new_cache(twin.cfg.cache_cap);
        let mut attr = Attribution::default();
        for &op in &served {
            attribute(&sh, &twin, &scratch, op, &mut attr)?;
        }
        rep.attribution(&attr);
        rep.setup_attribution(&setup_attr, SETUP_LAYERS);
        let overhead = phase.ops_per_s() / traced.ops_per_s();
        rep.metric("trace_overhead_ratio", overhead, "ratio");
        rep.meta_num("trace_overhead_ratio", overhead);
        let ops = attr.ops().max(1) as f64;
        rep.metric(
            "serve.handler_ms",
            attr.counter("serve.handler_ns") as f64 * 1e-6 / ops,
            "ms/op",
        );
        let loop_s = attr.self_ns("sim.loop") as f64 * 1e-9;
        rep.metric(
            "sim.cycles_per_s",
            if loop_s > 0.0 {
                attr.counter("sim.cycles") as f64 / loop_s
            } else {
                0.0
            },
            "1/s",
        );
        rep.metric("isa.bytes", attr.counter("isa.bytes") as f64, "bytes");
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        rep.metric("serve.cache.hits", hits as f64, "count");
        rep.metric("serve.cache.misses", misses as f64, "count");
        rep.metric(
            "serve.cache.inserts",
            (after.inserts - before.inserts) as f64,
            "count",
        );
        rep.metric(
            "serve.cache.evictions",
            (after.evictions - before.evictions) as f64,
            "count",
        );
        rep.metric(
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        rep.metric(
            "serve.rejected_429",
            adapter::rejected_429(&state) as f64,
            "count",
        );
    }
    adapter::stop_server(server);

    resimulate(&sh)?;
    // One result per distinct program.
    let total = |key: &str| -> Result<u64, String> {
        let seen = sh.seen.lock().expect("clients joined");
        seen.iter().flatten().map(|r| field(r, key)).sum()
    };
    if cfg.trace {
        rep.metric("sim.fires", total("fires")? as f64, "count");
    } else {
        rep.setup(&setup_ns);
        rep.throughput_and_latency(&phase);
        rep.metric("sim_cycles", total("cycles")? as f64, "cycles");
        rep.paper_gap(cfg.seed);
        rep.peak_rss();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn reruns_hit_the_shipped_cache() {
        let cap = adapter::serve_config().cache_cap;
        // Stream positions touched, in order: the cold fill, then requests.
        let mut touched: Vec<u64> = window(0).collect();
        let mut last: HashMap<u64, usize> = touched.iter().map(|&q| (q, 0)).collect();
        for n in 0..20_000 {
            let (q, rerun) = shot(n);
            if rerun {
                assert!(
                    window(n).contains(&q),
                    "request {n} re-runs {q} outside the window"
                );
                let since: HashSet<u64> = touched[last[&q] + 1..].iter().copied().collect();
                assert!(
                    since.len() < cap,
                    "request {n}: {} others since {q}",
                    since.len()
                );
            } else {
                assert!(!last.contains_key(&q), "request {n} submits {q} twice");
            }
            last.insert(q, touched.len());
            touched.push(q);
        }
        let fresh = (0..20_000).filter(|&n| !shot(n).1).count();
        assert_eq!(fresh, 2_000);
    }
}
