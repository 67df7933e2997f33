//! The repository benchmark: three Shift-fleet workloads, measured end to
//! end (host time of the simulator and simulated serving metrics) and
//! layer by layer (a separate traced run).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bursty_fleet|decode_drain|production_chaos|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For each workload, in one process and never concurrently:
//!
//! 1. one warm-up run (untimed) fixes the reference report digest;
//! 2. untraced repeats fill `--seconds`: each sets up afresh (inputs from
//!    the seed, nodes built) and runs; `run_s` and `setup_s` are medians;
//! 3. one traced run with every layer wrapped in a timing decorator.
//!
//! Every run must send each request to exactly one outcome and reproduce
//! the reference digest; any mismatch exits non-zero. The last stdout line
//! is one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See `README.md` beside this crate.

mod serving;
mod spans;
mod workloads;

use serving::Serving;
use sp_engine::EngineReport;
use sp_parallel::ParallelConfig;
use sp_workload::Trace;
use spans::{Span, Totals};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{class_slo, prepare, Workload};

/// Untraced repeats per workload, whatever `--seconds` allows.
const MIN_REPEATS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench [--workload <bursty_fleet|decode_drain|production_chaos|all>] \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workloads: Workload::ALL.to_vec(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

/// Everything measured for one workload.
struct Measured {
    workload: Workload,
    requests: usize,
    iterations: u64,
    /// Requests rejected or terminally failed in one run.
    not_completed: u64,
    /// Runs made: warm-up, repeats and the traced run.
    runs: u64,
    repeats: usize,
    threads: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The output check: every request sent has exactly one outcome, and
/// the report reproduces the reference digest.
fn check(
    workload: Workload,
    trace: &Trace,
    report: &EngineReport,
    want: u64,
    what: &str,
) -> Result<Serving, String> {
    let s = serving::evaluate(trace, report, &class_slo())
        .map_err(|e| format!("{}: {what}: {e}", workload.name()))?;
    let got = serving::digest(report);
    if got != want {
        return Err(format!(
            "{}: {what}: report digest {got:016x} differs from the reference {want:016x}",
            workload.name()
        ));
    }
    Ok(s)
}

/// Runs `workload` untraced until `seconds` have passed (at least
/// [`MIN_REPEATS`] times), then once traced, checking every report.
fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    // Warm-up: pool threads, page faults and allocator arenas settle here.
    let (trace, warm) = prepare(workload, seed, false).run();
    let reference = serving::digest(&warm.report);
    let mut serving = check(workload, &trace, &warm.report, reference, "warm-up")?;
    let report = warm.report;
    let threads = warm.threads;

    let mut run_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let window = Instant::now();
    while run_s.len() < MIN_REPEATS || window.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let prepared = prepare(workload, seed, false);
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(prepared.generate_s);
        build_s.push(prepared.build_s);
        let (trace, out) = prepared.run();
        run_s.push(out.run_s);
        check(workload, &trace, &out.report, reference, &format!("repeat {}", run_s.len()))?;
    }
    let rss = peak_rss_mb()?;

    spans::reset();
    let coordinator = std::thread::current().id();
    let (trace, traced) = prepare(workload, seed, true).run();
    let totals = spans::snapshot(coordinator);
    check(workload, &trace, &traced.report, reference, "traced run")?;

    let run = median(&run_s);
    let iterations = report.iterations() as f64;
    let ttft_n = serving.ttft.count();
    let tpot_n = serving.tpot.count();
    let q = |s: &mut sp_metrics::Quantiles, p: f64| s.quantile(p).unwrap_or(f64::NAN) * 1e3;
    let end_to_end = vec![
        Metric {
            note: format!(
                "median of {} repeats [{}]; traced {:.4} s",
                run_s.len(),
                run_s.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" "),
                traced.run_s
            ),
            ..metric("run_s", run, "s")
        },
        metric("events_per_s", iterations / run, "1/s"),
        metric("peak_rss_mb", rss, "MB"),
        Metric {
            note: "inputs + node build, median".into(),
            ..metric("setup_s", median(&setup_s), "s")
        },
        Metric {
            note: format!("n={ttft_n}"),
            ..metric("ttft_p50_ms", q(&mut serving.ttft, 0.5), "ms")
        },
        Metric {
            note: format!("n={ttft_n}"),
            ..metric("ttft_p99_ms", q(&mut serving.ttft, 0.99), "ms")
        },
        Metric {
            note: format!("n={tpot_n}"),
            ..metric("tpot_p50_ms", q(&mut serving.tpot, 0.5), "ms")
        },
        Metric {
            note: format!("n={tpot_n}"),
            ..metric("tpot_p99_ms", q(&mut serving.tpot, 0.99), "ms")
        },
        Metric {
            note: format!("{} of {} sent", serving.slo_met, serving.sent),
            ..metric("slo_attainment", serving.slo_attainment(), "ratio")
        },
        metric("goodput_tok_s", serving.goodput_tok_s(), "tok/s"),
        metric("throughput_tok_s", serving.throughput_tok_s(), "tok/s"),
        Metric {
            note: format!(
                "failed_frac {} = (rejected {} + failed {}) / sent {}",
                serving.failed_frac(),
                serving.rejected,
                serving.failed,
                serving.sent
            ),
            ..metric("completed_frac", serving.completed_frac(), "ratio")
        },
    ];
    let per_layer = layers(&report, &serving, &totals, &traced, run, &generate_s, &build_s);
    for m in end_to_end.iter().chain(&per_layer) {
        if !m.value.is_finite() {
            return Err(format!("{}: metric {} is not finite", workload.name(), m.name));
        }
    }
    Ok(Measured {
        workload,
        requests: trace.len(),
        iterations: report.iterations(),
        not_completed: serving.rejected + serving.failed,
        runs: run_s.len() as u64 + 2,
        repeats: run_s.len(),
        threads,
        end_to_end,
        per_layer,
    })
}

/// Per-layer numbers: span totals from the traced run, simulated counts
/// from the reference report.
fn layers(
    report: &EngineReport,
    serving: &Serving,
    t: &Totals,
    traced: &workloads::RunOutput,
    run_s: f64,
    generate_s: &[f64],
    build_s: &[f64],
) -> Vec<Metric> {
    let iterations = report.iterations();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let shift_iters = report.config_usage().get(&ParallelConfig::tensor(8)).copied().unwrap_or(0);
    let fleet = report.fleet_timeline();
    let loads = report.replica_loads();
    let means: Vec<f64> = (0..loads.replica_count()).map(|r| loads.mean(r)).collect();
    let mean_of_means = means.iter().sum::<f64>() / means.len().max(1) as f64;
    let imbalance = ratio(means.iter().copied().fold(0.0, f64::max), mean_of_means);
    let count = |name, v: u64| metric(name, v as f64, "count");
    let secs = |name, v: f64| metric(name, v, "s");
    vec![
        secs("trace.run_s", traced.run_s),
        metric("trace.overhead", ratio(traced.run_s, run_s), "ratio"),
        secs("trace.worker_span_s", t.worker_top_s),
        secs("cluster.self_s", traced.run_s - t.coordinator_top_s),
        count("routing.pick_calls", t.calls(Span::Pick)),
        secs("routing.pick_s", t.secs(Span::Pick)),
        count("node.push_calls", t.calls(Span::Push)),
        secs("node.push_s", t.secs(Span::Push)),
        count("node.step_once_calls", t.calls(Span::StepOnce)),
        secs("node.step_once_s", t.secs(Span::StepOnce)),
        count("node.step_run_calls", t.calls(Span::StepRun)),
        secs("node.step_run_s", t.secs(Span::StepRun)),
        count("node.step_run_events", t.run_events),
        metric(
            "node.step_run_hit_rate",
            ratio(t.run_hits as f64, t.calls(Span::StepRun) as f64),
            "ratio",
        ),
        metric("node.events_per_step_run", ratio(t.run_events as f64, t.run_hits as f64), "count"),
        count("shift.choose_calls", t.calls(Span::Choose)),
        secs("shift.choose_s", t.secs(Span::Choose)),
        count("autoscale.decide_calls", t.calls(Span::Decide)),
        secs("autoscale.decide_s", t.secs(Span::Decide)),
        secs("autoscale.spawn_build_s", t.secs(Span::SpawnBuild)),
        secs("workload.generate_s", median(generate_s)),
        secs("node.build_s", median(build_s)),
        count("engine.iterations", iterations),
        metric(
            "engine.tokens_per_iter",
            ratio(report.metrics().total_tokens() as f64, iterations as f64),
            "tok",
        ),
        count("engine.deferrals", report.batch_deferrals()),
        count("engine.sheds", report.batch_sheds()),
        count("engine.preemptions", report.preemptions()),
        count("engine.rejected", report.rejected().len() as u64),
        metric("kvcache.peak_util", report.peak_kv_utilization(), "ratio"),
        metric("routing.load_imbalance", imbalance, "ratio"),
        metric("shift.shift_iter_share", ratio(shift_iters as f64, iterations as f64), "ratio"),
        count("shift.switches", traced.switches),
        count("fault.crashes", fleet.crash_count() as u64),
        count("fault.wasted_prefill_tokens", fleet.wasted_prefill_tokens()),
        count("fault.recoveries", fleet.recoveries()),
        count("fault.failed", report.failed().len() as u64),
        count("autoscale.peak_replicas", fleet.peak_provisioned() as u64),
        metric("autoscale.replica_s", fleet.replica_seconds(report.makespan()), "replica-s"),
        count("samples.ttft", serving.ttft.count() as u64),
        count("samples.tpot", serving.tpot.count() as u64),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!("    {:<28} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
}

fn json_metrics(prefix: &str, metrics: &[Metric], out: &mut Vec<String>) {
    for m in metrics {
        out.push(format!(
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measured = Vec::new();
    for &w in &args.workloads {
        match measure(w, args.seed, args.seconds) {
            Ok(m) => measured.push(m),
            Err(e) => {
                eprintln!("output check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fields = Vec::new();
    for m in &measured {
        let name = m.workload.name();
        println!("== {name} (seed {}) ==", args.seed);
        println!(
            "# env {{\"workload\": \"{name}\", \"seed\": {}, \"available_parallelism\": {cores}, \
             \"cluster_threads\": {}, \"requests\": {}, \"iterations\": {}, \"repeats\": {}}}",
            args.seed, m.threads, m.requests, m.iterations, m.repeats
        );
        print_table("end to end (untraced)", &m.end_to_end);
        print_table("per layer (traced run; simulated counts from the report)", &m.per_layer);
        attempted += m.requests as u64 * m.runs;
        failed += m.not_completed * m.runs;
        let prefix = if measured.len() > 1 { format!("{name}.") } else { String::new() };
        json_metrics(&prefix, if args.trace { &m.per_layer } else { &m.end_to_end }, &mut fields);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
