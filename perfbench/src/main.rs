//! Benchmark of the HierAdMo engines: end-to-end metrics per workload and,
//! in a separate traced pass, a per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload silo_sync|silo_async|device_sampled|all \
//!     [--seed 7] [--seconds 20] [--trace 0|1]
//! ```
//!
//! `--trace 0` makes one untimed 2-thread call, then repeats the untraced
//! engine call at 1 thread within `--seconds` and reports medians.
//! `--trace 1` repeats a traced 1-thread run, an untraced 1-thread run and
//! an untraced 2-thread run, and reports the ledger of the median traced
//! run. Every engine call is an
//! attempted operation; an error, a panic, a final accuracy below the
//! workload's target, or a final-parameter hash that differs from the
//! run's first is a failed one. Both modes include at least one traced
//! 1-thread and one untraced 2-thread call, so the hash check always
//! compares the two. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod kernels;
mod ledger;
mod sys;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ledger::{percentile, Layer, Ledger, TimedModel, TimedStrategy};
use workloads::{params_hash, run_engine, Outcome, Setup, Workload};

/// Least number of set-ups per untraced run, and the least time they
/// take together; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Least number of untraced engine calls per untraced run.
const MIN_REPS: usize = 2;
/// Threads of the untimed reference call of the end-to-end pass and of
/// the traced pass's `process.cpu_per_wall` call. End-to-end timings run
/// at 1 thread: on a shared 2-core host a 2-thread call stalls whenever
/// the host takes one core away, while a 1-thread call moves to the other.
const THREADS: usize = 2;

struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            parsed.seconds
        ));
    }
    parsed.workload = match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => None,
        Some(name) => Some(Workload::from_name(name).ok_or_else(|| {
            format!("unknown workload {name}; valid: silo_sync silo_async device_sampled all")
        })?),
    };
    Ok(parsed)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The output checks: every engine call is one attempted operation.
struct Checks {
    target: f64,
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn new(target: f64) -> Self {
        Checks {
            target,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one engine call; returns its outcome if it passed.
    fn record(&mut self, label: &str, result: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        let verdict = result.and_then(|out| {
            let hash = params_hash(&out.final_params);
            let reference = *self.reference.get_or_insert(hash);
            if hash != reference {
                Err(format!(
                    "final-parameter hash {hash:016x} != {reference:016x}"
                ))
            } else if out.final_accuracy.is_nan() || out.final_accuracy < self.target {
                Err(format!(
                    "final accuracy {} below target {}",
                    out.final_accuracy, self.target
                ))
            } else {
                Ok(out)
            }
        });
        verdict
            .map_err(|e| {
                self.failed += 1;
                eprintln!("[perfbench] failed {label} run: {e}");
            })
            .ok()
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded(f: impl FnOnce() -> Result<Outcome, String>) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// One untraced engine call: its outcome, wall time and process CPU time.
fn untraced(setup: &Setup, threads: usize) -> (Result<Outcome, String>, Duration, f64) {
    let strategy = setup.strategy();
    let cpu = sys::cpu_seconds();
    let start = Instant::now();
    let out = guarded(|| run_engine(setup, &strategy, &setup.model, threads));
    let wall = start.elapsed();
    (out, wall, sys::cpu_seconds() - cpu)
}

/// One traced 1-thread engine call, with the ledger it filled.
fn traced(setup: &Setup) -> (Result<Outcome, String>, Duration, Ledger) {
    let ledger = Ledger::default();
    let inner = setup.strategy();
    let strategy = TimedStrategy {
        inner: &inner,
        ledger: &ledger,
    };
    let model = TimedModel {
        inner: setup.model.clone(),
        ledger: &ledger,
    };
    let start = Instant::now();
    let out = guarded(|| run_engine(setup, &strategy, &model, 1));
    let wall = start.elapsed();
    (out, wall, ledger)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether one more repetition, lasting the median of `done`, still ends
/// within `seconds` of `start`; so a run lasts about `--seconds` and
/// never overshoots it by a whole repetition.
fn fits(start: Instant, done: &[f64], seconds: f64) -> bool {
    secs(start.elapsed()) + median(done) <= seconds
}

/// The end-to-end pass.
fn end_to_end(w: Workload, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(setup.take());
        let start = Instant::now();
        setup = Some(Setup::new(w, w.size(), args.seed));
        setup_s.push(secs(start.elapsed()));
    }
    let setup = setup.expect("SETUP_REPS is positive");

    // An untimed 2-thread call warms up and sets the reference hash that
    // every 1-thread call must match.
    let (out, _, _) = untraced(&setup, THREADS);
    checks.record("untraced 2-thread", out);

    // Every call's time counts, failed or not: the work was done, and the
    // checks report the failure.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut accuracy = 0.0;
    while walls.len() < MIN_REPS || fits(start, &walls, args.seconds) {
        let (out, wall, _) = untraced(&setup, 1);
        eprintln!(
            "[perfbench] untraced call {}: {:.4} s",
            walls.len(),
            secs(wall)
        );
        walls.push(secs(wall));
        match checks.record("untraced 1-thread", out) {
            Some(out) => accuracy = out.final_accuracy,
            None if checks.failed as usize > MIN_REPS => break,
            None => {}
        }
    }
    let (out, _, ledger) = traced(&setup);
    checks.record("traced", out);
    let wall_s = median(&walls);
    let samples = ledger.stats(Layer::Grad).calls as f64 * setup.cfg.batch_size as f64;
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("wall_s", wall_s, "s"),
        metric("samples_per_s", samples / wall_s, "1/s"),
        metric("peak_rss_mib", sys::peak_rss_mib().unwrap_or(0.0), "MiB"),
        metric("final_accuracy", accuracy, "fraction"),
    ]
}

/// Per-call seconds of one layer in microseconds at quantile `q`.
fn layer_us(stats: &ledger::LayerStats, q: f64) -> f64 {
    let mut d = stats.durations_ns.clone();
    d.sort_unstable();
    percentile(&d, q) as f64 / 1e3
}

/// The traced pass.
fn per_layer(w: Workload, args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let setup = Setup::new(w, w.size(), args.seed);
    let start = Instant::now();
    let mut traced_runs = Vec::new();
    let (mut wall_1t, mut wall_2t, mut cpu_per_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let mut last = None;
    while rounds.is_empty() || fits(start, &rounds, args.seconds) {
        let round = Instant::now();
        let (out, wall, ledger) = traced(&setup);
        traced_runs.push((secs(wall), ledger));
        last = checks.record("traced", out).or(last);
        let (out, wall, _) = untraced(&setup, 1);
        checks.record("untraced 1-thread", out);
        wall_1t.push(secs(wall));
        let (out, wall, cpu) = untraced(&setup, THREADS);
        checks.record("untraced 2-thread", out);
        wall_2t.push(secs(wall));
        cpu_per_wall.push(cpu / secs(wall));
        rounds.push(secs(round.elapsed()));
    }
    traced_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let traced_walls: Vec<f64> = traced_runs.iter().map(|r| r.0).collect();
    let (wall, ledger) = &traced_runs[traced_runs.len() / 2];
    let (events, sim_seconds) = last.map_or((0, 0.0), |o| (o.events, o.sim_seconds));

    let s = |l: Layer| ledger.stats(l);
    let self_s = |l: Layer| s(l).self_ns as f64 / 1e9;
    let calls = |l: Layer| s(l).calls as f64;
    let engine_self_s = wall - ledger.attributed_ns() as f64 / 1e9;
    let peak_rss = sys::peak_rss_mib().unwrap_or(0.0);
    let size = w.size();
    let fan_in = size.sampled_per_edge;
    let batch = size.batch_size;
    vec![
        metric("models.grad_s", self_s(Layer::Grad), "s"),
        metric("models.grad_calls", calls(Layer::Grad), "count"),
        metric("models.grad_p50_us", layer_us(&s(Layer::Grad), 0.5), "us"),
        metric("models.grad_p99_us", layer_us(&s(Layer::Grad), 0.99), "us"),
        metric("models.set_params_s", self_s(Layer::SetParams), "s"),
        metric("core.local_step_self_s", self_s(Layer::LocalStep), "s"),
        metric("core.local_step_calls", calls(Layer::LocalStep), "count"),
        metric(
            "core.local_step_p99_us",
            layer_us(&s(Layer::LocalStep), 0.99),
            "us",
        ),
        metric("core.agg_edge_s", self_s(Layer::AggEdge), "s"),
        metric("core.agg_edge_calls", calls(Layer::AggEdge), "count"),
        metric(
            "core.agg_edge_p99_us",
            layer_us(&s(Layer::AggEdge), 0.99),
            "us",
        ),
        metric("core.agg_middle_s", self_s(Layer::AggMiddle), "s"),
        metric("core.agg_middle_calls", calls(Layer::AggMiddle), "count"),
        metric("core.agg_root_s", self_s(Layer::AggRoot), "s"),
        metric("core.agg_root_calls", calls(Layer::AggRoot), "count"),
        metric("core.global_params_s", self_s(Layer::GlobalParams), "s"),
        metric("models.eval_s", self_s(Layer::Eval), "s"),
        metric("models.eval_calls", calls(Layer::Eval), "count"),
        metric("engine.self_s", engine_self_s, "s"),
        metric("engine.self_share", engine_self_s / wall, "fraction"),
        metric("trace.wall_s", *wall, "s"),
        metric(
            "trace.overhead",
            median(&traced_walls) / median(&wall_1t),
            "ratio",
        ),
        metric("simrt.events", events as f64, "count"),
        metric(
            "simrt.events_per_s",
            events as f64 / median(&wall_2t),
            "1/s",
        ),
        metric("simrt.sim_seconds", sim_seconds, "s"),
        metric("process.cpu_per_wall", median(&cpu_per_wall), "ratio"),
        metric(
            "simrt.rss_per_slot_kib",
            peak_rss * 1024.0 / setup.slots as f64,
            "KiB",
        ),
        metric("tensor.matmul_bt_us", kernels::matmul_bt_us(batch), "us"),
        metric(
            "tensor.weighted_sum_batch_us",
            kernels::weighted_sum_batch_us(fan_in),
            "us",
        ),
        metric(
            "tensor.fused_aggregate_momentum_us",
            kernels::fused_aggregate_momentum_us(),
            "us",
        ),
    ]
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.to_string(),
    }
}

/// The environment record printed with every result.
fn env_line(w: Workload, args: &Args) -> String {
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, \
         \"nproc\": {}, \"dispatch\": \"{:?}\", \"git_rev\": \"{}\", \"rustc\": \"{}\"}}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        if args.trace { "[1, 2]" } else { "1" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        hieradmo::tensor::kernels::dispatch_level(),
        git_rev(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let mut checks = Checks::new(w.accuracy_target());
    let metrics = if args.trace {
        per_layer(w, args, &mut checks)
    } else {
        end_to_end(w, args, &mut checks)
    };
    println!("{}", env_line(w, args));
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, so each reports
/// its own peak memory, and sums their checks.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("[perfbench] cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Checks::new(0.0);
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("[perfbench] {} exited with {}", w.name(), o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("[perfbench] cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        println!("== {} ==", w.name());
        for l in lines {
            println!("{l}");
        }
        let count = |key: &str| -> u64 {
            let tail = last.split(&format!("\"{key}\": ")).nth(1).unwrap_or("0");
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        total.attempted += count("attempted");
        total.failed += count("failed");
        if !last.starts_with("{\"correct\": true") {
            total.failed = total.failed.max(1);
        }
    }
    println!("{}", result_line(&total, &[]));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
