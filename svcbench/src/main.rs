//! svcbench: the Cobra-as-a-service benchmark.
//!
//! Starts a `CobraService` behind a `WireServer` on loopback, drives one
//! workload with a single `WireClient` in a closed loop, checks every
//! reply against an independent reference, and prints every metric by
//! name and unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <cold_search|warm_serve|write_mix> [--seed N] [--seconds S] \
//!     [--trace 0|1] [--programs N] [--self-test]
//! ```
//!
//! `--trace 0` (default) reports the end-to-end metrics; `--trace 1` runs
//! the wire run again untraced for the server-side counters, then the
//! traced replay, and reports the per-layer metrics. `--self-test`
//! corrupts one reference outcome and exits 0 only if the check catches
//! exactly the submissions it should. See README.md.

mod corpus;
mod reference;
mod serve;
mod stats;
mod trace;

use cobra_server::CacheOutcome;
use corpus::{Corpus, Kind, Workload};
use serve::{timed_run, Setup, WireRun};
use stats::{geomean, median, quantile, ratio, result_line, Metric};
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The documented default seed (and a second one for unseen-seed checks:
/// 2).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
/// The generator stream the programs come from.
const DEFAULT_PROGRAMS: u64 = 0;
/// One closed-loop client: the benchmark measures latency without
/// contention (see README.md).
const CLIENTS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    programs: u64,
    self_test: bool,
}

const USAGE: &str = "usage: svcbench --workload <cold_search|warm_serve|write_mix> \
                     [--seed N] [--seconds S] [--trace 0|1] [--programs N] [--self-test]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut programs = DEFAULT_PROGRAMS;
    let mut self_test = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--programs" => {
                programs = value
                    .parse()
                    .map_err(|_| format!("bad program stream {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        programs,
        self_test,
    })
}

/// `VmHWM` (peak resident set) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("svcbench: refusing to report from a debug build; run with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the requested mode; `Ok(false)` when outputs were wrong.
fn run(args: &Args) -> Result<bool, String> {
    let corpus = Corpus::generate(args.workload, args.seed, args.programs);
    println!(
        "host: nproc={} profile={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("SVCBENCH_PROFILE"),
        env!("SVCBENCH_RUSTC_VERSION"),
    );
    println!(
        "run: workload={} seed={} programs={} seconds={} trace={} clients={CLIENTS} tenants={} \
         row_scale={}",
        args.workload.name(),
        args.seed,
        args.programs,
        args.seconds,
        u8::from(args.trace),
        corpus.tenants.len(),
        args.workload.row_scale(),
    );
    if args.self_test {
        self_test(&corpus, args.seconds)
    } else if args.trace {
        traced(&corpus, args.seconds)
    } else {
        untraced(&corpus, args.seconds)
    }
}

fn print_run_summary(run: &WireRun) {
    let hits = run
        .records
        .iter()
        .filter(|r| r.cache == Some(CacheOutcome::Hit))
        .count();
    println!(
        "samples: attempted={} completed={} hits={hits} errors={} shed={} mismatches={} \
         failed_frac={} timed_wall_s={:.3} verify_s={:.3}",
        run.records.len(),
        run.completed(),
        run.errors,
        run.shed,
        run.mismatches,
        ratio(run.failed(), run.records.len() as u64),
        run.wall_s,
        run.verify_s,
    );
}

/// The end-to-end run: set up [`SETUP_REPEATS`] times, then measure.
fn untraced(corpus: &Corpus, seconds: f64) -> Result<bool, String> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            previous.shutdown();
        }
        let s = Setup::new(corpus)?;
        setup_secs.push(s.secs);
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let run = timed_run(corpus, &mut setup, seconds)?;
    // Priming submissions (one per tenant) are checked like the rest.
    let primed = corpus.tenants.len() as u64;
    let priming_failed = setup.priming_mismatches;
    setup.shutdown();

    let latencies_ms: Vec<f64> = run
        .records
        .iter()
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    let metrics = [
        Metric::new("submit_p50_ms", "ms", quantile(&latencies_ms, 0.5)),
        Metric::new("submit_p99_ms", "ms", quantile(&latencies_ms, 0.99)),
        Metric::new(
            "submissions_per_s",
            "1/s",
            run.completed() as f64 / run.wall_s,
        ),
        Metric::new("app_speedup_geomean", "ratio", geomean(&run.speedups)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new("setup_s", "s", median(&setup_secs)),
    ];
    print_run_summary(&run);
    if latencies_ms.len() < 1000 {
        println!(
            "warning: {} samples; p99 needs at least 1000",
            latencies_ms.len()
        );
    }
    print_metrics(&metrics);
    let failed = run.failed() + priming_failed;
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, run.records.len() as u64 + primed, failed, &metrics)
    );
    Ok(correct)
}

/// The per-layer run: an untraced wire run for the server-side figures,
/// then the traced replay of the same sequence.
fn traced(corpus: &Corpus, seconds: f64) -> Result<bool, String> {
    let mut setup = Setup::new(corpus)?;
    let run = timed_run(corpus, &mut setup, seconds)?;
    let primed = corpus.tenants.len() as u64;
    let priming_failed = setup.priming_mismatches;
    let refs = setup.shutdown();
    print_run_summary(&run);

    let completed: Vec<&serve::Record> = run.records.iter().filter(|r| r.cache.is_some()).collect();
    let overhead_us: Vec<f64> = completed
        .iter()
        .map(|r| (r.latency_ns as f64 - r.wall_ns as f64) / 1e3)
        .collect();
    let service_us: Vec<f64> = completed.iter().map(|r| r.wall_ns as f64 / 1e3).collect();
    let hits = completed
        .iter()
        .filter(|r| r.cache == Some(CacheOutcome::Hit))
        .count() as u64;
    let exhausted = completed
        .iter()
        .filter(|r| r.cache == Some(CacheOutcome::Miss) && r.budget_exhausted)
        .count();
    let (before, after) = (&run.counters_before, &run.counters_after);

    let report = trace::replay(corpus, &refs, &run, seconds)?;
    let traced_ns = report.root_total_ns();
    let untraced_ns: u64 = run.records[..report.submissions as usize]
        .iter()
        .map(|r| r.wall_ns)
        .sum();

    let mut metrics = vec![
        Metric::new("net.wire_overhead_us", "us", median(&overhead_us)),
        Metric::new("service.wall_us_p50", "us", quantile(&service_us, 0.5)),
        Metric::new("service.wall_us_p99", "us", quantile(&service_us, 0.99)),
        Metric::new(
            "plan_cache.hit_ratio",
            "ratio",
            ratio(hits, run.records.len() as u64),
        ),
        Metric::new("plan_cache.entries", "count", run.cache_entries as f64),
        Metric::new(
            "admission.rejected",
            "count",
            (after.rejected - before.rejected) as f64,
        ),
        Metric::new(
            "admission.degraded",
            "count",
            (after.degraded - before.degraded) as f64,
        ),
        Metric::new("core.budget_exhausted", "count", exhausted as f64),
    ];
    metrics.extend(
        report
            .metrics()
            .into_iter()
            .map(|(name, unit, value)| Metric::new(name, unit, value)),
    );
    metrics.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
    ));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/spans-{}-seed{}.jsonl",
        corpus.workload.name(),
        corpus.seed
    ));
    report
        .write_spans(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: replayed={} misses={} mismatches={} divergences={} spans={} -> {}",
        report.submissions,
        report.misses,
        report.mismatches,
        report.divergences,
        report.spans.len(),
        path.display()
    );
    println!("self time by span (share of replayed wall):");
    for (name, (calls, ns)) in report.self_time_table() {
        println!(
            "  {name:<26} calls={calls:>7} self_ms={:>10.3} share={:.4}",
            ns as f64 / 1e6,
            ratio(ns, traced_ns)
        );
    }
    print_metrics(&metrics);
    let failed = run.failed() + priming_failed + report.mismatches + report.divergences;
    let correct = failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            run.records.len() as u64 + primed + report.submissions,
            failed,
            &metrics
        )
    );
    Ok(correct)
}

/// Corrupt the reference of the first scheduled tenant's first read and
/// confirm the check flags exactly the submissions that compare against
/// it.
fn self_test(corpus: &Corpus, seconds: f64) -> Result<bool, String> {
    let mut setup = Setup::new(corpus)?;
    let victim = corpus.submission(0).tenant;
    setup.refs.corrupt(victim);
    let run = timed_run(corpus, &mut setup, seconds)?;
    setup.shutdown();
    let expected = run
        .records
        .iter()
        .filter(|r| r.sub.tenant == victim && r.sub.kind == Kind::Read && r.sub.cycle == 0)
        .count() as u64;
    let caught = expected > 0 && run.mismatches == expected && run.errors == 0;
    println!(
        "self-test: corrupted the reference of tenant {victim}; {expected} submissions compared \
         against it, {} mismatches flagged: {}",
        run.mismatches,
        if caught { "caught" } else { "NOT CAUGHT" }
    );
    Ok(caught)
}
