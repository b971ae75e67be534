//! Optimizer-throughput benchmark over the genprog corpus.
//!
//! Measures *real* wall-clock optimization time (the one part of the
//! reproduction that runs the actual algorithm rather than a simulation):
//!
//! * **single-program latency** — `Cobra::optimize_program` per
//!   (genprog seed × network profile), min/mean over `--iters` runs;
//! * **batch throughput** — `Cobra::optimize_batch_with_workers` over a
//!   replicated corpus program at 1/2/4/8 workers.
//!
//! * **estimation error** — on the *skewed* genprog corpus, the cost
//!   model's calibration: geomean multiplicative error
//!   `exp(mean |ln(est/actual)|)` of estimated vs simulated program
//!   cost, for the uniform-NDV baseline and for histogram + runtime
//!   feedback estimation (the adaptive-statistics fidelity trajectory).
//!
//! * **execution throughput** — real wall-clock query execution on a
//!   [`GenConfig::large`] fixture (1M+ rows per table): scan/filter/
//!   join/aggregate plans run through `minidb::Executor` on the columnar
//!   and row engines *interleaved* (A/B/A/B, cancelling thermal drift),
//!   reporting executions/sec, rows/sec and the per-query and geomean
//!   columnar-over-row speedup. A `point_select` row times the N+1 inner
//!   query `select * from t1 where t1_fk = :k` over many keys, reporting
//!   median and p95 µs per query on each engine.
//!
//! * **serving** — Cobra-as-a-service end to end
//!   (`cobra_server::CobraService`): cold submissions against fresh
//!   tenants (full search per request) vs warm cache-hit submissions at
//!   1/4/8 concurrent sessions, reporting submissions/sec and the
//!   warm-over-cold per-submission speedup.
//!
//! * **soak** — sustained mixed load over the *wire* under fault
//!   injection: several retrying `WireClient`s drive a cold/warm
//!   submission mix against a server running `FaultPlan::chaos`,
//!   reporting p50/p95/p99 submission latency plus ok/error/shed/retry/
//!   fault/replay counts (the ROADMAP's sustained-load soak item).
//!
//! Results land in `BENCH_optimizer.json` (override with `--json <path>`
//! or `COBRA_BENCH_JSON`) so every perf PR leaves a machine-readable
//! trajectory. Pass `--baseline <prior.json>` to embed a previous run and
//! compute the geometric-mean speedup against it.
//!
//! Usage: `opt_bench [--seeds N] [--iters N] [--batch N] [--json PATH]
//!                   [--baseline PATH] [--smoke]`
//!
//! `--smoke` shrinks everything (3 seeds, 1 iter, batch 4) for CI.

use bench_support::{json_str, BenchRecord};
use cobra_core::{Cobra, ValidationConfig, VerifyLevel};
use cobra_server::{CobraService, ServerConfig, TenantSpec};
use imperative::ast::Program;
use minidb::{ExecEngine, Executor, FeedbackStore};
use netsim::NetworkProfile;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::genprog::{GenCase, GenConfig, GenSchema};
use workloads::harness::{run_on, run_on_with_feedback};
use workloads::rng::StdRng;

struct Config {
    seeds: u64,
    iters: usize,
    batch: usize,
    workers: Vec<usize>,
    /// Skewed-corpus size for the estimation-error metric.
    est_seeds: u64,
    /// Skewed-corpus size for the validated-selection metric.
    val_seeds: u64,
    /// Whether `--smoke` was passed (enables the CI win-rate gate).
    smoke: bool,
    /// Timed iterations per (query × engine) in the execution section.
    exec_iters: usize,
    /// Row scale applied to the [`GenConfig::large`] execution fixture
    /// (1.0 = the full 1M+ rows; smoke shrinks it).
    exec_scale: f64,
    /// Distinct keys bound, one query each, in the point-select row.
    point_keys: usize,
    /// Fresh tenants (= full searches) in the serving cold phase.
    serving_cold: usize,
    /// Warm submissions per session per concurrency level.
    serving_submits: usize,
    /// Concurrent retrying clients in the fault-injected soak.
    soak_clients: usize,
    /// Submissions per client in the soak.
    soak_rounds: usize,
    json: std::path::PathBuf,
    baseline: Option<std::path::PathBuf>,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let (d_seeds, d_iters, d_batch, d_est) = if smoke { (3, 1, 4, 4) } else { (24, 5, 16, 20) };
    // Smoke shrinks the 1M+-row execution fixture to ~2% (tens of
    // thousands of rows) so CI stays fast; timings are report-only there.
    let (d_exec_iters, d_exec_scale) = if smoke { (2, 0.02) } else { (5, 1.0) };
    let (d_serving_cold, d_serving_submits) = if smoke { (3, 10) } else { (8, 50) };
    let (d_soak_clients, d_soak_rounds) = if smoke { (2, 24) } else { (4, 120) };
    let d_val = if smoke { 4 } else { 12 };
    Config {
        seeds: flag("--seeds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_seeds),
        iters: flag("--iters")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_iters),
        batch: flag("--batch")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_batch),
        est_seeds: flag("--est-seeds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_est),
        val_seeds: flag("--val-seeds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_val),
        smoke,
        exec_iters: flag("--exec-iters")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_exec_iters),
        exec_scale: flag("--exec-scale")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_exec_scale),
        point_keys: if smoke { 16 } else { 64 },
        serving_cold: flag("--serving-cold")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_serving_cold),
        serving_submits: flag("--serving-submits")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_serving_submits),
        soak_clients: flag("--soak-clients")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_soak_clients),
        soak_rounds: flag("--soak-rounds")
            .and_then(|s| s.parse().ok())
            .unwrap_or(d_soak_rounds),
        workers: vec![1, 2, 4, 8],
        json: flag("--json")
            .map(Into::into)
            .or_else(|| std::env::var_os("COBRA_BENCH_JSON").map(Into::into))
            .unwrap_or_else(|| "BENCH_optimizer.json".into()),
        baseline: flag("--baseline").map(Into::into),
    }
}

fn profiles() -> Vec<NetworkProfile> {
    vec![
        NetworkProfile::slow_remote(),
        NetworkProfile::new("mid-range", 100e6, 10.0),
        NetworkProfile::fast_local(),
    ]
}

/// Extract `"key":<number>` from our own JSON output (good enough for the
/// flat documents this binary writes; avoids a JSON-parser dependency).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = &doc[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checked-in floor for the smoke-mode validated-selection gate: the
/// fraction of skewed cases where the validated pick's full-fixture
/// runtime is no worse than the cost-only pick's. Validation that
/// promotes a plan which loses on the full fixture drags this below the
/// floor and fails CI.
const VALIDATION_SMOKE_FLOOR: f64 = 0.95;

/// The validated-selection section: cost-only argmin vs runtime-validated
/// selection on the skewed genprog corpus, judged by full-fixture runs.
struct ValidationBench {
    cases: u64,
    /// Cases where the validated pick differs from the cost-only argmin.
    differing: u64,
    /// Cases where validation promoted a measured non-argmin candidate.
    promotions: u64,
    /// Cases where the measured ranking disagreed with the predicted one.
    disagreements: u64,
    /// Fraction of cases where each selector's pick is no slower than the
    /// other's on the full fixture (ties count for both).
    validated_win_rate: f64,
    cost_only_win_rate: f64,
    /// Geomean full-fixture speedup of the validated pick over the
    /// cost-only pick (1.0 = identical choices everywhere).
    geomean_speedup: f64,
}

/// Optimize every skewed case twice — cost-only and with
/// [`ValidationConfig::default`] — then run both chosen programs on the
/// *full* fixture (ground truth) and score which selector picked the
/// program that actually runs faster.
fn bench_validation(seeds: u64) -> ValidationBench {
    let gen_cfg = GenConfig::skewed();
    let net = NetworkProfile::slow_remote();
    let mut differing = 0;
    let mut promotions = 0;
    let mut disagreements = 0;
    let mut validated_wins = 0u64;
    let mut cost_only_wins = 0u64;
    let mut log_speedups = Vec::new();
    for seed in 0..seeds {
        let case = GenCase::from_seed(7000 + seed, &gen_cfg);
        let fixture = case.fixture();
        let cost_only = fixture.cobra_builder().network(net.clone()).build();
        let validated = fixture
            .cobra_builder()
            .network(net.clone())
            .validate_selection(ValidationConfig::default())
            .build();
        let a = cost_only
            .optimize_program(&case.program)
            .expect("optimizes");
        let b = validated
            .optimize_program(&case.program)
            .expect("optimizes");
        if let Some(v) = &b.validation {
            if v.promoted_rank > 0 {
                promotions += 1;
            }
            if !v.agreement {
                disagreements += 1;
            }
        }
        if a.program != b.program {
            differing += 1;
        }
        // Ground truth: each pick simulated on its own fresh full-size
        // fixture (deterministic, so one run per pick suffices).
        let t_a = run_on(
            &case.fixture(),
            net.clone(),
            &case.program.with_entry(a.program),
        )
        .expect("cost-only pick runs")
        .secs;
        let t_b = run_on(
            &case.fixture(),
            net.clone(),
            &case.program.with_entry(b.program),
        )
        .expect("validated pick runs")
        .secs;
        if t_b <= t_a * (1.0 + 1e-9) {
            validated_wins += 1;
        }
        if t_a <= t_b * (1.0 + 1e-9) {
            cost_only_wins += 1;
        }
        log_speedups.push((t_a.max(1e-12) / t_b.max(1e-12)).ln());
    }
    let rate = |wins: u64| wins as f64 / seeds.max(1) as f64;
    let out = ValidationBench {
        cases: seeds,
        differing,
        promotions,
        disagreements,
        validated_win_rate: rate(validated_wins),
        cost_only_win_rate: rate(cost_only_wins),
        geomean_speedup: (log_speedups.iter().sum::<f64>() / log_speedups.len().max(1) as f64)
            .exp(),
    };
    println!(
        "\nvalidated selection ({} skewed cases): win-rate validated {:.2} vs cost-only {:.2}; \
         {} differing pick(s), {} promotion(s), {} measured disagreement(s), \
         geomean speedup x{:.3}",
        out.cases,
        out.validated_win_rate,
        out.cost_only_win_rate,
        out.differing,
        out.promotions,
        out.disagreements,
        out.geomean_speedup
    );
    out
}

struct BatchRow {
    profile: String,
    workers: usize,
    batch: usize,
    total_ns: f64,
    per_program_ns: f64,
}

/// One engine's timings for one benchmark query.
struct EngineTiming {
    mean_ns: f64,
    execs_per_sec: f64,
    rows_per_sec: f64,
}

/// Columnar-vs-row measurements for one benchmark query.
struct ExecQueryRow {
    name: &'static str,
    sql: String,
    /// Base-table rows the query reads per execution.
    input_rows: u64,
    /// Result rows per execution (identical across engines by the
    /// equivalence contract; asserted before timing).
    out_rows: u64,
    /// Whether this query counts toward the scan/filter/join speedup gate.
    gated: bool,
    columnar: EngineTiming,
    row: EngineTiming,
    speedup: f64,
}

/// Per-query latency of the point select on one engine, in µs.
struct PointTiming {
    median_us: f64,
    p95_us: f64,
}

/// The N+1 inner query over many keys, columnar vs row (ungated).
struct PointSelectRow {
    sql: &'static str,
    keys: usize,
    table_rows: u64,
    out_rows: u64,
    columnar: PointTiming,
    row: PointTiming,
}

/// The whole execution-throughput section.
struct ExecSection {
    corpus_rows: u64,
    iters: usize,
    scale: f64,
    geomean_speedup: f64,
    queries: Vec<ExecQueryRow>,
    point_select: PointSelectRow,
}

/// Time `select * from t1 where t1_fk = :k` once per key on each engine,
/// interleaved, after one warm-up query per engine (which also builds the
/// columnar postings, as the first inner query of a loop would).
fn bench_point_select(
    db: &minidb::Database,
    funcs: &minidb::FuncRegistry,
    keys: usize,
) -> PointSelectRow {
    const SQL: &str = "select * from t1 where t1_fk = :k";
    let plan = minidb::sql::parse(SQL).expect("point select parses");
    let table_rows = db.table("t1").unwrap().row_count() as u64;
    // t1_fk references t0_id, so keys spread over t0's id range.
    let parents = db.table("t0").unwrap().row_count();
    let run = |engine: ExecEngine, key: usize| {
        let params = HashMap::from([("k".to_string(), minidb::Value::Int(key as i64))]);
        Executor::new(db, funcs)
            .with_engine(engine)
            .execute(&plan, &params)
            .expect("point select executes")
    };
    run(ExecEngine::Columnar, 0);
    run(ExecEngine::Row, 0);
    let mut col_us = Vec::with_capacity(keys);
    let mut row_us = Vec::with_capacity(keys);
    let mut out_rows = 0;
    for i in 0..keys {
        let key = i * parents / keys.max(1);
        let t = Instant::now();
        let c = run(ExecEngine::Columnar, key);
        col_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let r = run(ExecEngine::Row, key);
        row_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(c.rows, r.rows, "engines must agree on point select k={key}");
        assert_eq!(c.work, r.work, "work accounting must agree on k={key}");
        out_rows += c.row_count();
    }
    let timing = |mut us: Vec<f64>| {
        us.sort_by(f64::total_cmp);
        let pct = |p: f64| us[((p * us.len() as f64).ceil() as usize).clamp(1, us.len()) - 1];
        PointTiming {
            median_us: pct(0.5),
            p95_us: pct(0.95),
        }
    };
    let out = PointSelectRow {
        sql: SQL,
        keys,
        table_rows,
        out_rows,
        columnar: timing(col_us),
        row: timing(row_us),
    };
    println!(
        "exec/point_select ({keys} keys over {table_rows} rows): columnar median {:.1} µs \
         p95 {:.1} µs, row median {:.1} µs p95 {:.1} µs",
        out.columnar.median_us, out.columnar.p95_us, out.row.median_us, out.row.p95_us
    );
    out
}

/// Run the scan/filter/join/aggregate plans on both engines, interleaved,
/// over a [`GenConfig::large`] fixture scaled by `scale`, then the
/// point-select row over `point_keys` keys.
fn bench_execution(iters: usize, scale: f64, point_keys: usize) -> ExecSection {
    // A fixed-seed large schema: ≥2 tables, t1 FK-linked to t0, 1M+ rows
    // per table at scale 1.0 (GenSchema guarantees the shape).
    let mut rng = StdRng::seed_from_u64(2024);
    let schema = GenSchema::generate(&mut rng, &GenConfig::large());
    let fixture = schema.build_fixture(0xC0B2A, scale);
    let db = fixture.db.read().unwrap();
    let corpus_rows: u64 = schema
        .tables
        .iter()
        .map(|t| db.table(&t.name).unwrap().row_count() as u64)
        .sum();
    let t0 = db.table("t0").unwrap().row_count() as u64;
    let t1 = db.table("t1").unwrap().row_count() as u64;
    println!(
        "\nexecution corpus: {} tables, {corpus_rows} rows total (scale {scale})",
        schema.tables.len()
    );

    // The operator mix of the data plane: a full-column scan reduction, a
    // multi-conjunct filter, a 1M×1M FK hash join, and a grouped
    // aggregate. Aggregating outputs keeps result materialization out of
    // the measurement, so the timing isolates the operators themselves.
    let queries: [(&'static str, String, u64, bool); 4] = [
        (
            "scan",
            "select sum(t0_a) as s from t0".to_string(),
            t0,
            true,
        ),
        (
            "filter",
            "select count(*) as n from t0 where t0_a < 20 and t0_b < 25".to_string(),
            t0,
            true,
        ),
        (
            "join",
            "select count(*) as n from t0 join t1 on t0_id = t1_fk where t1_b < 10".to_string(),
            t0 + t1,
            true,
        ),
        (
            "aggregate",
            "select t0_a, count(*) as n, sum(t0_b) as s from t0 group by t0_a".to_string(),
            t0,
            false,
        ),
    ];

    let params = HashMap::new();
    let mut rows_out = Vec::new();
    for (name, sql, input_rows, gated) in queries {
        let plan = minidb::sql::parse(&sql).expect("benchmark query parses");
        let run = |engine: ExecEngine| {
            Executor::new(&db, &fixture.funcs)
                .with_engine(engine)
                .execute(&plan, &params)
                .expect("benchmark query executes")
        };
        // Warm-up both engines (also populates the columnar cache) and
        // check the equivalence contract before timing anything.
        let c = run(ExecEngine::Columnar);
        let r = run(ExecEngine::Row);
        assert_eq!(c.rows, r.rows, "engines must agree on {name}");
        assert_eq!(c.work, r.work, "work accounting must agree on {name}");
        let out_rows = c.row_count();

        // Interleaved timing: columnar, row, columnar, row, …
        let mut col_ns = Vec::with_capacity(iters);
        let mut row_ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(run(ExecEngine::Columnar));
            col_ns.push(t.elapsed().as_secs_f64() * 1e9);
            let t = Instant::now();
            std::hint::black_box(run(ExecEngine::Row));
            row_ns.push(t.elapsed().as_secs_f64() * 1e9);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let timing = |ns: &[f64]| {
            let mean_ns = mean(ns);
            EngineTiming {
                mean_ns,
                execs_per_sec: 1e9 / mean_ns,
                rows_per_sec: input_rows as f64 * 1e9 / mean_ns,
            }
        };
        let columnar = timing(&col_ns);
        let row = timing(&row_ns);
        let speedup = row.mean_ns / columnar.mean_ns;
        println!(
            "exec/{name}: columnar {:.2} ms ({:.2e} rows/s), row {:.2} ms — {speedup:.2}x",
            columnar.mean_ns / 1e6,
            columnar.rows_per_sec,
            row.mean_ns / 1e6,
        );
        rows_out.push(ExecQueryRow {
            name,
            sql,
            input_rows,
            out_rows,
            gated,
            columnar,
            row,
            speedup,
        });
    }

    let gated: Vec<f64> = rows_out
        .iter()
        .filter(|q| q.gated)
        .map(|q| q.speedup.ln())
        .collect();
    let geomean_speedup = (gated.iter().sum::<f64>() / gated.len() as f64).exp();
    println!("geomean columnar speedup (scan/filter/join): {geomean_speedup:.2}x");
    let point_select = bench_point_select(&db, &fixture.funcs, point_keys);

    ExecSection {
        corpus_rows,
        iters,
        scale,
        geomean_speedup,
        queries: rows_out,
        point_select,
    }
}

/// One warm-serving measurement at a fixed session count.
struct ServingRow {
    sessions: usize,
    submissions: usize,
    total_ns: f64,
    per_submission_ns: f64,
    submissions_per_sec: f64,
}

/// The Cobra-as-a-service section: cold full-search submissions vs warm
/// cache-hit submissions at several concurrency levels.
struct ServingSection {
    cold_tenants: usize,
    cold_per_submission_ns: f64,
    cold_searches_per_sec: f64,
    /// Cold per-submission time over warm per-submission time at one
    /// session — what the plan cache buys a serving deployment.
    warm_over_cold_speedup: f64,
    rows: Vec<ServingRow>,
}

fn bench_serving(cold_tenants: usize, submissions: usize) -> ServingSection {
    use cobra_server::CacheOutcome;
    // Seed 0: read-only with a multi-millisecond search; tiny rows keep
    // execution cheap, so the cold path is dominated by the search the
    // warm path skips.
    let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
    let fx = case.fixture();
    let concurrency = [1usize, 4, 8];
    // Pin the worker pool explicitly: the default follows host
    // parallelism, which on a small CI runner would serialize admission
    // and turn the concurrency sweep into a queueing benchmark.
    let service = CobraService::new(ServerConfig {
        max_concurrent: *concurrency.iter().max().unwrap(),
        ..ServerConfig::default()
    });
    let tenant_spec = |name: String, fx: &workloads::harness::Fixture| {
        TenantSpec::new(name, fx.db.clone(), fx.mapping.clone(), fx.funcs.clone()).feedback(false)
    };

    // Cold: a fresh tenant per submission (fresh database instance id ⇒
    // cold cache key), so every request pays the full optimizer search.
    let mut cold_total_ns = 0.0f64;
    for i in 0..cold_tenants {
        let fx_cold = fx.fork_db();
        let tenant = service.register_tenant(tenant_spec(format!("cold{i}"), &fx_cold));
        let session = service.open_session(tenant).expect("open session");
        let t = Instant::now();
        let reply = service.submit(session, &case.program).expect("cold submit");
        cold_total_ns += t.elapsed().as_secs_f64() * 1e9;
        assert_eq!(reply.cache, CacheOutcome::Miss, "fresh tenant must miss");
    }
    let cold_per_submission_ns = cold_total_ns / cold_tenants as f64;
    let cold_searches_per_sec = 1e9 / cold_per_submission_ns;
    println!(
        "\nserving/cold: {:.3} ms/submission ({:.1} searches/s) over {cold_tenants} fresh tenants",
        cold_per_submission_ns / 1e6,
        cold_searches_per_sec
    );

    // Warm: one tenant, primed once; every further submission is a cache
    // hit regardless of how many sessions race.
    let tenant = service.register_tenant(tenant_spec("warm".to_string(), &fx));
    let prime = service.open_session(tenant).expect("open session");
    let first = service
        .submit(prime, &case.program)
        .expect("priming submit");
    assert_eq!(first.cache, CacheOutcome::Miss);

    let mut rows = Vec::new();
    for &sessions in &concurrency {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..sessions {
                let service = service.clone();
                let program = &case.program;
                scope.spawn(move || {
                    let session = service.open_session(tenant).expect("open session");
                    for _ in 0..submissions {
                        let reply = service.submit(session, program).expect("warm submit");
                        assert_eq!(reply.cache, CacheOutcome::Hit, "warm must hit");
                    }
                    service.close_session(session).expect("close session");
                });
            }
        });
        let total_ns = t.elapsed().as_secs_f64() * 1e9;
        let n = (sessions * submissions) as f64;
        let row = ServingRow {
            sessions,
            submissions: sessions * submissions,
            total_ns,
            per_submission_ns: total_ns / n,
            submissions_per_sec: n * 1e9 / total_ns,
        };
        println!(
            "serving/warm/sessions={sessions}: {:.1} µs/submission, {:.0} submissions/s",
            row.per_submission_ns / 1e3,
            row.submissions_per_sec
        );
        rows.push(row);
    }
    let warm_over_cold_speedup = cold_per_submission_ns / rows[0].per_submission_ns;
    println!("serving warm-over-cold speedup (1 session): {warm_over_cold_speedup:.1}x");
    service.shutdown();

    ServingSection {
        cold_tenants,
        cold_per_submission_ns,
        cold_searches_per_sec,
        warm_over_cold_speedup,
        rows,
    }
}

/// The sustained-load soak: mixed cold/warm traffic over the wire with
/// `FaultPlan::chaos` injecting and retrying clients recovering.
struct SoakSection {
    clients: usize,
    rounds: usize,
    submissions: u64,
    /// Submissions that landed (possibly after client retries).
    ok: u64,
    /// Submissions whose typed error survived the whole retry budget.
    errors: u64,
    /// Requests the server shed with `Overloaded`.
    shed: u64,
    /// Reconnect-and-retry attempts across every client.
    client_retries: u64,
    /// Faults the plan actually injected (all kinds).
    faults_injected: u64,
    /// Retried submissions answered from the idempotency reply window.
    idempotent_replays: u64,
    /// Worker panics isolated into `ServerError::Internal`.
    internal_errors: u64,
    mean_ns: f64,
    p50_ns: f64,
    p95_ns: f64,
    p99_ns: f64,
}

/// `program` with an unused `let pad_<i>` prepended: same observable
/// behavior, distinct plan-cache fingerprint — the soak's cold traffic.
fn soak_variant(program: &Program, i: i64) -> Program {
    use imperative::ast::{Expr, Stmt, StmtKind};
    let mut entry = program.entry().clone();
    entry.body.insert(
        0,
        Stmt::new(StmtKind::Let(format!("pad_{i}"), Expr::lit(i))),
    );
    program.with_entry(entry)
}

fn bench_soak(clients: usize, rounds: usize) -> SoakSection {
    use cobra_server::{FaultPlan, RetryPolicy, WireClient, WireServer};
    use std::time::Duration;

    // Injected worker panics are part of the schedule; silence only them.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let case = GenCase::from_seed(0, &GenConfig::default()).with_row_scale(0.2);
    let fx = case.fixture();
    let faults = FaultPlan::chaos(0x50AC);
    let service = CobraService::new(ServerConfig {
        faults: faults.clone(),
        ..ServerConfig::default()
    });
    service.register_tenant(
        TenantSpec::new("soak", fx.db.clone(), fx.mapping.clone(), fx.funcs.clone())
            .feedback(false),
    );
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind soak server");
    let addr = server.local_addr();

    // Warm pool of 4 fingerprints shared by every client (warm after the
    // first pass each) plus a per-client unique variant every 8th round —
    // the cold fraction that keeps full searches in the mix.
    let warm_pool: Vec<Program> = (0..4).map(|i| soak_variant(&case.program, i)).collect();

    let mut latencies_ns: Vec<f64> = Vec::with_capacity(clients * rounds);
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut client_retries = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let warm_pool = &warm_pool;
                let case = &case;
                scope.spawn(move || {
                    let mut client = WireClient::connect_with(
                        addr,
                        RetryPolicy {
                            max_attempts: 8,
                            base_backoff: Duration::from_millis(2),
                            max_backoff: Duration::from_millis(20),
                            request_timeout: Duration::from_secs(2),
                            seed: 0x50AC + c as u64,
                        },
                    )
                    .expect("soak client connects");
                    let session = client.open_session("soak").expect("soak session");
                    let mut lat = Vec::with_capacity(rounds);
                    let (mut ok, mut errors) = (0u64, 0u64);
                    for round in 0..rounds {
                        let cold;
                        let program = if round % 8 == 7 {
                            cold = soak_variant(&case.program, (c * 100_000 + round) as i64);
                            &cold
                        } else {
                            &warm_pool[round % warm_pool.len()]
                        };
                        let t = Instant::now();
                        match client.submit(session, program) {
                            Ok(_) => ok += 1,
                            Err(_) => errors += 1,
                        }
                        lat.push(t.elapsed().as_secs_f64() * 1e9);
                    }
                    let _ = client.close_session(session);
                    (lat, ok, errors, client.retries())
                })
            })
            .collect();
        for h in handles {
            let (lat, o, e, r) = h.join().expect("soak client thread");
            latencies_ns.extend(lat);
            ok += o;
            errors += e;
            client_retries += r;
        }
    });

    let counters = server.service().counters();
    server.shutdown();

    latencies_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        let n = latencies_ns.len();
        let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
        latencies_ns[idx]
    };
    let out = SoakSection {
        clients,
        rounds,
        submissions: latencies_ns.len() as u64,
        ok,
        errors,
        shed: counters.rejected,
        client_retries,
        faults_injected: faults.total_injected(),
        idempotent_replays: counters.idempotent_replays,
        internal_errors: counters.internal_errors,
        mean_ns: latencies_ns.iter().sum::<f64>() / latencies_ns.len().max(1) as f64,
        p50_ns: pct(50.0),
        p95_ns: pct(95.0),
        p99_ns: pct(99.0),
    };
    println!(
        "\nsoak ({} clients x {} rounds, chaos seed 0x50AC): \
         {} ok / {} errors, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        out.clients,
        out.rounds,
        out.ok,
        out.errors,
        out.p50_ns / 1e6,
        out.p95_ns / 1e6,
        out.p99_ns / 1e6
    );
    println!(
        "  {} faults injected, {} client retries, {} shed, {} replays, {} isolated panics",
        out.faults_injected,
        out.client_retries,
        out.shed,
        out.idempotent_replays,
        out.internal_errors
    );
    out
}

fn main() {
    let cfg = parse_args();
    let gen_cfg = GenConfig::default();
    let prof = profiles();

    println!(
        "opt_bench: {} seeds x {} profiles, {} iters; batch {} x workers {:?}",
        cfg.seeds,
        prof.len(),
        cfg.iters,
        cfg.batch,
        cfg.workers
    );

    // ---- single-program latency --------------------------------------
    let mut singles: Vec<BenchRecord> = Vec::new();
    for seed in 0..cfg.seeds {
        let case = GenCase::from_seed(seed, &gen_cfg);
        let fixture = case.fixture();
        for net in &prof {
            let cobra = fixture.cobra_builder().network(net.clone()).build();
            let rec = bench_support::bench_record(
                &format!("optimize_program/seed={seed}/{}", net.name()),
                &format!("seed={seed} profile={}", net.name()),
                cfg.iters,
                || cobra.optimize_program(&case.program).expect("optimizes"),
            );
            singles.push(rec);
        }
    }

    // Geometric means of per-case mean latency, overall and per profile.
    let geomean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            return f64::NAN;
        }
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    };
    let overall = geomean(&singles.iter().map(|r| r.mean_ns).collect::<Vec<_>>());
    let mut per_profile: Vec<(String, f64)> = Vec::new();
    for net in &prof {
        let xs: Vec<f64> = singles
            .iter()
            .filter(|r| r.config.ends_with(&format!("profile={}", net.name())))
            .map(|r| r.mean_ns)
            .collect();
        per_profile.push((net.name().to_string(), geomean(&xs)));
    }
    println!(
        "\ngeomean optimize_program latency: {:.3} ms",
        overall / 1e6
    );
    for (name, g) in &per_profile {
        println!("  {name:<12} {:.3} ms", g / 1e6);
    }

    // ---- static verifier overhead ------------------------------------
    // The same (seed x profile) singles corpus with the three-pass rewrite
    // verifier at VerifyLevel::Panic: every candidate alternative is
    // checked during expansion. The geomean ratio against the Off default
    // is the verifier's whole-search overhead (acceptance: <= 10%).
    let mut verified_singles: Vec<f64> = Vec::new();
    for seed in 0..cfg.seeds {
        let case = GenCase::from_seed(seed, &gen_cfg);
        let fixture = case.fixture();
        for net in &prof {
            let cobra = fixture
                .cobra_builder()
                .network(net.clone())
                .verify_rewrites(VerifyLevel::Panic)
                .build();
            let rec = bench_support::bench_record(
                &format!("optimize_program_verified/seed={seed}/{}", net.name()),
                &format!("seed={seed} profile={} verify=panic", net.name()),
                cfg.iters,
                || cobra.optimize_program(&case.program).expect("optimizes"),
            );
            verified_singles.push(rec.mean_ns);
        }
    }
    let verified_geomean = geomean(&verified_singles);
    let verifier_overhead_pct = (verified_geomean / overall - 1.0) * 100.0;
    println!(
        "verifier at Panic: geomean {:.3} ms ({:+.2}% vs Off)",
        verified_geomean / 1e6,
        verifier_overhead_pct
    );

    // ---- batch throughput scaling ------------------------------------
    // One representative case per profile, replicated: isolates worker
    // scaling from per-seed variance (every search is identical work).
    let mut batch_rows: Vec<BatchRow> = Vec::new();
    let batch_case = GenCase::from_seed(0, &gen_cfg);
    let batch_fixture = batch_case.fixture();
    let programs: Vec<Program> = (0..cfg.batch).map(|_| batch_case.program.clone()).collect();
    for net in &prof {
        let cobra: Cobra = batch_fixture.cobra_builder().network(net.clone()).build();
        for &w in &cfg.workers {
            // Warm-up, then one timed pass (batches are big enough that a
            // single pass is stable; iters would multiply runtime 4x).
            let _ = cobra.optimize_batch_with_workers(&programs, w);
            let start = Instant::now();
            let out = cobra.optimize_batch_with_workers(&programs, w);
            let total_ns = start.elapsed().as_secs_f64() * 1e9;
            assert!(out.iter().all(|r| r.is_ok()), "batch optimizes");
            println!(
                "optimize_batch/{}/workers={w}: {:.1} ms total, {:.3} ms/program",
                net.name(),
                total_ns / 1e6,
                total_ns / 1e6 / cfg.batch as f64
            );
            batch_rows.push(BatchRow {
                profile: net.name().to_string(),
                workers: w,
                batch: cfg.batch,
                total_ns,
                per_program_ns: total_ns / cfg.batch as f64,
            });
        }
    }

    // ---- skewed-corpus estimation error ------------------------------
    // Cost-model calibration, not wall-clock: how far estimated program
    // costs sit from simulated runtimes on skewed data, as a geomean
    // multiplicative factor (1.0 = perfectly calibrated). Tracked for
    // the uniform-NDV baseline and for histogram + feedback estimation.
    let est_cfg = GenConfig::skewed();
    let mut err_base = Vec::new();
    let mut err_adaptive = Vec::new();
    for seed in 0..cfg.est_seeds {
        let case = GenCase::from_seed(7000 + seed, &est_cfg);
        let fixture = case.fixture();
        for net in &prof {
            let base = fixture
                .cobra_builder()
                .network(net.clone())
                .histograms(false)
                .build();
            // One run doubles as the ground truth and the feedback
            // recording (runs are deterministic on a fresh fixture).
            let store = Arc::new(FeedbackStore::new());
            let actual =
                run_on_with_feedback(&case.fixture(), net.clone(), &case.program, store.clone())
                    .expect("skewed case runs")
                    .secs;
            let adaptive = fixture
                .cobra_builder()
                .network(net.clone())
                .feedback(store)
                .build();
            let log_err = |est_ns: f64| ((est_ns / 1e9).max(1e-9) / actual.max(1e-9)).ln().abs();
            err_base.push(log_err(base.cost_of(case.program.entry())));
            err_adaptive.push(log_err(adaptive.cost_of(case.program.entry())));
        }
    }
    let error_factor = |errs: &[f64]| -> f64 {
        if errs.is_empty() {
            return f64::NAN;
        }
        (errs.iter().sum::<f64>() / errs.len() as f64).exp()
    };
    let est_base_factor = error_factor(&err_base);
    let est_adaptive_factor = error_factor(&err_adaptive);
    println!(
        "\nskewed-corpus estimation error ({} cases): \
         baseline x{est_base_factor:.3}, histogram+feedback x{est_adaptive_factor:.3}",
        err_base.len()
    );

    // ---- validated selection vs cost-only argmin ---------------------
    // Trust-but-verify scoreboard on the skewed corpus: does the
    // runtime-validated pick actually run faster on the full fixture?
    let validation = bench_validation(cfg.val_seeds);
    if cfg.smoke {
        // CI gate: validated selection must not lose to the cost-only
        // argmin, and must hold the checked-in absolute floor.
        assert!(
            validation.validated_win_rate + 1e-9 >= validation.cost_only_win_rate,
            "validated selection win-rate {:.3} fell below cost-only {:.3}",
            validation.validated_win_rate,
            validation.cost_only_win_rate
        );
        assert!(
            validation.validated_win_rate + 1e-9 >= VALIDATION_SMOKE_FLOOR,
            "validated selection win-rate {:.3} fell below the {VALIDATION_SMOKE_FLOOR} floor",
            validation.validated_win_rate
        );
    }

    // ---- execution throughput: columnar vs row data plane ------------
    // Real wall-clock execution on a GenConfig::large() fixture (1M+
    // rows per table at scale 1.0). Engines run interleaved — columnar,
    // row, columnar, row — so thermal/frequency drift hits both equally.
    let exec_section = bench_execution(cfg.exec_iters, cfg.exec_scale, cfg.point_keys);

    // ---- serving: cold vs warm submissions through CobraService ------
    let serving = bench_serving(cfg.serving_cold, cfg.serving_submits);

    // ---- soak: sustained mixed load over the wire under chaos --------
    let soak = bench_soak(cfg.soak_clients, cfg.soak_rounds);
    // The resilience contract, gated even in smoke: every submission
    // either lands after retries or fails typed — nothing hangs or is
    // silently lost — and the schedule really injected faults.
    assert_eq!(soak.ok + soak.errors, soak.submissions);
    assert!(soak.faults_injected > 0, "chaos schedule must inject");

    // ---- baseline comparison -----------------------------------------
    let baseline_doc = cfg
        .baseline
        .as_ref()
        .map(|p| std::fs::read_to_string(p).expect("read baseline JSON"));
    let baseline_geomean = baseline_doc
        .as_deref()
        .and_then(|d| json_number(d, "geomean_mean_ns"));
    let speedup = baseline_geomean.map(|b| b / overall);
    if let Some(s) = speedup {
        println!("\ngeomean speedup vs baseline: {s:.2}x");
    }

    // ---- JSON emission -----------------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("\"bench\":\"opt_bench\",\n\"schema_version\":1,\n");
    out.push_str(&format!(
        "\"config\":{{\"seeds\":{},\"iters\":{},\"batch\":{},\"workers\":[{}],\"host_parallelism\":{}}},\n",
        cfg.seeds,
        cfg.iters,
        cfg.batch,
        cfg.workers
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(","),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    out.push_str(&format!("\"geomean_mean_ns\":{overall:.1},\n"));
    out.push_str(&format!(
        "\"verifier\":{{\"level\":\"panic\",\"geomean_mean_ns\":{verified_geomean:.1},\
         \"overhead_pct\":{verifier_overhead_pct:.2}}},\n"
    ));
    out.push_str("\"geomean_per_profile\":{");
    out.push_str(
        &per_profile
            .iter()
            .map(|(n, g)| format!("{}:{g:.1}", json_str(n)))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("},\n");
    if let Some(b) = baseline_geomean {
        out.push_str(&format!("\"baseline_geomean_mean_ns\":{b:.1},\n"));
        out.push_str(&format!("\"speedup_geomean\":{:.3},\n", speedup.unwrap()));
    }
    out.push_str(&format!(
        "\"estimation\":{{\"corpus\":\"skewed\",\"cases\":{},\
         \"uniform_ndv_error_factor\":{est_base_factor:.4},\
         \"histogram_feedback_error_factor\":{est_adaptive_factor:.4}}},\n",
        err_base.len()
    ));
    out.push_str(&format!(
        "\"validation\":{{\"corpus\":\"skewed\",\"cases\":{},\"differing\":{},\
         \"promotions\":{},\"disagreements\":{},\"validated_win_rate\":{:.4},\
         \"cost_only_win_rate\":{:.4},\"geomean_speedup_validated_over_cost_only\":{:.4},\
         \"smoke_floor\":{VALIDATION_SMOKE_FLOOR}}},\n",
        validation.cases,
        validation.differing,
        validation.promotions,
        validation.disagreements,
        validation.validated_win_rate,
        validation.cost_only_win_rate,
        validation.geomean_speedup
    ));
    out.push_str(&format!(
        "\"execution\":{{\"corpus_rows\":{},\"scale\":{},\"iters\":{},\
         \"batch_size\":{},\"geomean_speedup_scan_filter_join\":{:.3},\"queries\":[\n",
        exec_section.corpus_rows,
        exec_section.scale,
        exec_section.iters,
        minidb::BATCH_SIZE,
        exec_section.geomean_speedup
    ));
    let engine_json = |t: &EngineTiming| {
        format!(
            "{{\"mean_ns\":{:.1},\"execs_per_sec\":{:.4},\"rows_per_sec\":{:.1}}}",
            t.mean_ns, t.execs_per_sec, t.rows_per_sec
        )
    };
    out.push_str(
        &exec_section
            .queries
            .iter()
            .map(|q| {
                format!(
                    "  {{\"name\":{},\"sql\":{},\"input_rows\":{},\"out_rows\":{},\
                     \"gated\":{},\"columnar\":{},\"row\":{},\"speedup\":{:.3}}}",
                    json_str(q.name),
                    json_str(&q.sql),
                    q.input_rows,
                    q.out_rows,
                    q.gated,
                    engine_json(&q.columnar),
                    engine_json(&q.row),
                    q.speedup
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let ps = &exec_section.point_select;
    let point_json = |t: &PointTiming| {
        format!(
            "{{\"median_us\":{:.2},\"p95_us\":{:.2}}}",
            t.median_us, t.p95_us
        )
    };
    // A baseline run's columnar timing (the first `median_us`/`p95_us`
    // after its `point_select` key) is embedded as the before figure.
    let point_baseline = baseline_doc.as_deref().and_then(|d| {
        let rest = &d[d.find("\"point_select\":")?..];
        Some(PointTiming {
            median_us: json_number(rest, "median_us")?,
            p95_us: json_number(rest, "p95_us")?,
        })
    });
    if let Some(b) = &point_baseline {
        println!(
            "point_select columnar vs baseline: median {:.1} -> {:.1} µs, p95 {:.1} -> {:.1} µs",
            b.median_us, ps.columnar.median_us, b.p95_us, ps.columnar.p95_us
        );
    }
    out.push_str(&format!(
        "\n],\"point_select\":{{\"sql\":{},\"keys\":{},\"table_rows\":{},\"out_rows\":{},\
         \"gated\":false,\"columnar\":{},\"row\":{}{}}}}},\n",
        json_str(ps.sql),
        ps.keys,
        ps.table_rows,
        ps.out_rows,
        point_json(&ps.columnar),
        point_json(&ps.row),
        point_baseline
            .as_ref()
            .map(|b| format!(",\"baseline_columnar\":{}", point_json(b)))
            .unwrap_or_default()
    ));
    out.push_str(&format!(
        "\"serving\":{{\"cold\":{{\"tenants\":{},\"per_submission_ns\":{:.1},\
         \"searches_per_sec\":{:.2}}},\"warm_over_cold_speedup\":{:.2},\"warm\":[\n",
        serving.cold_tenants,
        serving.cold_per_submission_ns,
        serving.cold_searches_per_sec,
        serving.warm_over_cold_speedup
    ));
    out.push_str(
        &serving
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"sessions\":{},\"submissions\":{},\"total_ns\":{:.1},\
                     \"per_submission_ns\":{:.1},\"submissions_per_sec\":{:.1}}}",
                    r.sessions,
                    r.submissions,
                    r.total_ns,
                    r.per_submission_ns,
                    r.submissions_per_sec
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n]},\n");
    out.push_str(&format!(
        "\"soak\":{{\"clients\":{},\"rounds\":{},\"submissions\":{},\"ok\":{},\
         \"errors\":{},\"shed\":{},\"client_retries\":{},\"faults_injected\":{},\
         \"idempotent_replays\":{},\"internal_errors\":{},\
         \"latency_ns\":{{\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}}},\n",
        soak.clients,
        soak.rounds,
        soak.submissions,
        soak.ok,
        soak.errors,
        soak.shed,
        soak.client_retries,
        soak.faults_injected,
        soak.idempotent_replays,
        soak.internal_errors,
        soak.mean_ns,
        soak.p50_ns,
        soak.p95_ns,
        soak.p99_ns
    ));
    out.push_str("\"singles\":[\n");
    out.push_str(
        &singles
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n],\n\"batch\":[\n");
    out.push_str(
        &batch_rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"profile\":{},\"workers\":{},\"batch\":{},\"total_ns\":{:.1},\"per_program_ns\":{:.1}}}",
                    json_str(&r.profile),
                    r.workers,
                    r.batch,
                    r.total_ns,
                    r.per_program_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n]\n}\n");
    std::fs::write(&cfg.json, out).expect("write BENCH json");
    println!("wrote {}", cfg.json.display());
}
