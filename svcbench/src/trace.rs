//! The traced run: the workload's submission sequence replayed through
//! each layer's public calls, in pipeline order, on the replay's own
//! fixtures, with a span around every call.
//!
//! Per submission the spans are
//!
//! ```text
//! submit
//! ├─ codec.request_encode      Request::encode (program clone included)
//! ├─ codec.request_decode      Request::decode
//! ├─ plan_cache.fingerprint    program_fingerprint
//! ├─ core.optimize             plan-cache miss only
//! │  ├─ imperative.region_build   Region::from_function
//! │  ├─ core.region_dag           Cobra::region_dag (region build, rule expansion, memo insert)
//! │  ├─ volcano.cost_table        volcano::cost_table
//! │  ├─ volcano.extract           volcano::best_plan_from
//! │  ├─ volcano.count_plans       volcano::count_plans
//! │  ├─ core.emit                 emit::emit_function
//! │  └─ core.original_cost        Cobra::cost_of
//! ├─ interp.run                Interp::run on the optimized program
//! ├─ codec.response_encode     Response::encode
//! └─ codec.response_decode     Response::decode
//! ```
//!
//! `imperative.region_build` repeats work `core.region_dag` also does; it
//! is timed on its own because `region_dag` exposes no finer call. Leaf
//! spans are the layers; the self time of `submit` and `core.optimize` is
//! what no layer covers. Spans are kept in memory and written out as JSON
//! lines when the replay ends.

use crate::corpus::Corpus;
use crate::reference::References;
use crate::serve::WireRun;
use crate::stats::{mean, quantile, ratio};
use cobra_core::{emit, Cobra, VerifyLevel};
use cobra_server::{program_fingerprint, CacheOutcome, Request, Response, SubmitReply};
use imperative::ast::{Function, Program};
use imperative::regions::Region;
use interp::{Interp, InterpConfig, Outcome};
use minidb::{CacheStamp, ExecEngine, PlanFingerprint};
use netsim::{Clock, NetworkProfile};
use orm::{MappingRegistry, RemoteDb, Session};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workloads::harness::Fixture;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub submission: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, submission: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            submission,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, submission: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, submission);
        let out = black_box(f());
        self.exit(id);
        out
    }
}

/// A plan the replay's cache holds.
struct Planned {
    entry: Function,
    est_cost_ns: f64,
    original_cost_ns: f64,
    tags: Vec<String>,
}

/// Search counters of one optimizer call.
#[derive(Default)]
struct SearchCounts {
    memo_groups: u64,
    memo_exprs: u64,
    cost_memo_hits: u64,
    cost_memo_misses: u64,
    estimate_hits: u64,
    estimate_misses: u64,
}

/// One tenant as the replay serves it: its own data, its own optimizer
/// (configured as the service configures a tenant's), its own plan map.
struct ReplayTenant {
    fixture: Fixture,
    mappings: Arc<MappingRegistry>,
    cobra: Cobra,
    plans: HashMap<(PlanFingerprint, u64), Arc<Planned>>,
}

impl ReplayTenant {
    fn new(fixture: Fixture) -> ReplayTenant {
        let cobra = fixture
            .cobra_builder()
            .network(NetworkProfile::slow_remote())
            .engine(ExecEngine::default())
            .verify_rewrites(VerifyLevel::Off)
            .build();
        ReplayTenant {
            mappings: Arc::new(fixture.mapping.clone()),
            fixture,
            cobra,
            plans: HashMap::new(),
        }
    }

    fn stamp(&self) -> CacheStamp {
        let db = self.fixture.db.read().expect("database lock");
        CacheStamp {
            instance_id: db.instance_id(),
            stats_epoch: db.stats_epoch(),
            feedback_generation: 0,
            mode: 1,
        }
    }

    /// The optimizer pipeline through its public phase calls — the same
    /// sequence `Cobra::optimize_program` runs with validation off.
    fn optimize(
        &self,
        program: &Program,
        tr: &mut Tracer,
        sub: u64,
        counts: &mut SearchCounts,
    ) -> Result<Planned, String> {
        let entry = program.entry();
        tr.time("imperative.region_build", sub, || {
            Region::from_function(entry)
        });
        let (memo, root, model) = tr
            .time("core.region_dag", sub, || self.cobra.region_dag(program))
            .map_err(|e| format!("region_dag: {e}"))?;
        let memoized = volcano::CostMemo::new(&model);
        let sweeps = self.cobra.budget().max_search_sweeps;
        let table = tr.time("volcano.cost_table", sub, || {
            volcano::cost_table(&memo, &memoized, sweeps)
        });
        let best = tr
            .time("volcano.extract", sub, || {
                volcano::best_plan_from(&memo, root, &memoized, &table)
            })
            .ok_or("no plan for program")?;
        tr.time("volcano.count_plans", sub, || {
            volcano::count_plans(&memo, root)
        });
        let out = tr.time("core.emit", sub, || {
            emit::emit_function(&entry.name, &entry.params, &best.tree)
        });
        let original_cost_ns = tr.time("core.original_cost", sub, || self.cobra.cost_of(entry));
        counts.memo_groups += memo.num_live_groups() as u64;
        counts.memo_exprs += memo.num_exprs() as u64;
        counts.cost_memo_hits += memoized.hits();
        counts.cost_memo_misses += memoized.misses();
        counts.estimate_hits += model.estimate_cache_hits();
        counts.estimate_misses += model.estimate_cache_misses();
        Ok(Planned {
            tags: emit::describe(&out).iter().map(|t| t.to_string()).collect(),
            entry: out,
            est_cost_ns: best.cost,
            original_cost_ns,
        })
    }

    /// [`ReplayTenant::optimize`], untraced, checked against
    /// `Cobra::optimize_program` on the same program: the replay must
    /// measure the optimizer the server runs.
    fn checked_optimize(&self, program: &Program, tenant: usize) -> Result<Planned, String> {
        let planned =
            self.optimize(program, &mut Tracer::new(), 0, &mut SearchCounts::default())?;
        let direct = self
            .cobra
            .optimize_program(program)
            .map_err(|e| format!("tenant {tenant}: {e}"))?;
        if direct.program != planned.entry || direct.est_cost_ns != planned.est_cost_ns {
            return Err(format!(
                "tenant {tenant}: phase calls do not reproduce optimize_program"
            ));
        }
        Ok(planned)
    }

    fn execute(&self, program: &Program, tr: &mut Tracer, sub: u64) -> Result<Outcome, String> {
        let remote = RemoteDb::new(
            self.fixture.db.clone(),
            self.fixture.funcs.clone(),
            NetworkProfile::slow_remote(),
            Arc::new(Clock::new()),
        )
        .with_engine(ExecEngine::default());
        let session = Session::new(Arc::new(remote), self.mappings.clone());
        tr.time("interp.run", sub, || {
            Interp::new(&session, program)
                .with_config(InterpConfig::default())
                .run(vec![])
        })
        .map_err(|e| format!("execution failed: {e}"))
    }
}

/// What the traced run measured.
pub struct TraceReport {
    pub spans: Vec<Span>,
    pub submissions: u64,
    pub misses: u64,
    pub mismatches: u64,
    /// Replayed plans whose estimated cost differs from the server's
    /// reply for the same submission: the replay did not reproduce the
    /// server's choice.
    pub divergences: u64,
    pub request_bytes: Vec<f64>,
    pub response_bytes: Vec<f64>,
    counts: SearchCounts,
    /// Sums over the first full round of the schedule.
    pub round_stmts: u64,
    pub round_trips: u64,
    pub round_bytes: u64,
    pub round_sim_ns: u64,
}

/// Replay the wire run's submission sequence (at least one full round,
/// then for up to `seconds`, never past what the wire run submitted).
pub fn replay(
    corpus: &Corpus,
    refs: &References,
    wire: &WireRun,
    seconds: f64,
) -> Result<TraceReport, String> {
    let mut tenants: Vec<ReplayTenant> = corpus
        .tenants
        .iter()
        .map(|t| ReplayTenant::new(t.fixture()))
        .collect();
    // Priming, as the wire run primes (untraced).
    for (i, (t, case)) in tenants.iter_mut().zip(&corpus.tenants).enumerate() {
        let planned = t.checked_optimize(&case.read, i)?;
        if corpus.workload.writes() {
            t.checked_optimize(&case.case.program, i)?;
        }
        t.execute(
            &case.read.with_entry(planned.entry.clone()),
            &mut Tracer::new(),
            0,
        )?;
        let key = (program_fingerprint(&case.read), t.stamp().stats_epoch);
        t.plans.insert(key, Arc::new(planned));
    }

    let mut tr = Tracer::new();
    let mut report = TraceReport {
        spans: Vec::new(),
        submissions: 0,
        misses: 0,
        mismatches: 0,
        divergences: 0,
        request_bytes: Vec::new(),
        response_bytes: Vec::new(),
        counts: SearchCounts::default(),
        round_stmts: 0,
        round_trips: 0,
        round_bytes: 0,
        round_sim_ns: 0,
    };
    let limit = wire.records.len() as u64;
    let start = Instant::now();
    let mut i = 0u64;
    while i < limit && (i < corpus.round_len() || start.elapsed().as_secs_f64() < seconds) {
        let sub = corpus.submission(i);
        let submitted = corpus.program(&sub);
        let t = &mut tenants[sub.tenant];
        let root = tr.enter("submit", i);
        let request = tr.time("codec.request_encode", i, || {
            Request::Submit {
                session: sub.tenant as u64 + 1,
                idempotency: 0,
                program: submitted.as_ref().clone(),
            }
            .encode()
        });
        let program = match tr.time("codec.request_decode", i, || Request::decode(&request)) {
            Ok(Request::Submit { program, .. }) => program,
            other => return Err(format!("request did not round-trip: {other:?}")),
        };
        let fingerprint = tr.time("plan_cache.fingerprint", i, || {
            program_fingerprint(&program)
        });
        let stamp = t.stamp();
        let key = (fingerprint, stamp.stats_epoch);
        let (planned, cache) = match t.plans.get(&key) {
            Some(p) => (p.clone(), CacheOutcome::Hit),
            None => {
                let opt = tr.enter("core.optimize", i);
                let planned = Arc::new(t.optimize(&program, &mut tr, i, &mut report.counts)?);
                tr.exit(opt);
                t.plans.insert(key, planned.clone());
                report.misses += 1;
                (planned, CacheOutcome::Miss)
            }
        };
        let runnable = program.with_entry(planned.entry.clone());
        let outcome = t.execute(&runnable, &mut tr, i)?;
        let params: Vec<&str> = runnable.entry().params.iter().map(String::as_str).collect();
        let reply = SubmitReply {
            fingerprint,
            stamp,
            cache,
            degraded: false,
            est_cost_ns: planned.est_cost_ns,
            original_cost_ns: planned.original_cost_ns,
            tags: planned.tags.clone(),
            simulated_ns: outcome.elapsed_ns,
            round_trips: outcome.round_trips,
            results: outcome.normalized_with_vars(&params),
            wall_ns: 0,
        };
        let response = tr.time("codec.response_encode", i, || {
            Response::SubmitOk(Box::new(reply)).encode()
        });
        let reply = match tr.time("codec.response_decode", i, || Response::decode(&response)) {
            Ok(Response::SubmitOk(reply)) => reply,
            other => return Err(format!("response did not round-trip: {other:?}")),
        };
        tr.exit(root);

        report.request_bytes.push(request.len() as f64);
        report.response_bytes.push(response.len() as f64);
        let expected = refs
            .expected(sub.tenant, sub.kind, sub.cycle)
            .expect("the wire run built references for every replayed cycle");
        if expected.results != reply.results {
            report.mismatches += 1;
        }
        let wire_rec = &wire.records[i as usize];
        if wire_rec.cache.is_some() && wire_rec.est_cost_ns != reply.est_cost_ns {
            report.divergences += 1;
        }
        if i < corpus.round_len() {
            report.round_stmts += outcome.stmts_executed;
            report.round_trips += outcome.round_trips;
            report.round_bytes += outcome.bytes;
            report.round_sim_ns += outcome.elapsed_ns;
        }
        i += 1;
    }
    report.submissions = i;
    report.spans = tr.spans;
    Ok(report)
}

/// Durations (µs) of every span called `name`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

impl TraceReport {
    /// Mean (µs) per optimizer call of phase `name`; 0 when nothing missed.
    fn per_miss_us(&self, name: &str) -> f64 {
        if self.misses == 0 {
            return 0.0;
        }
        durations_us(&self.spans, name).iter().sum::<f64>() / self.misses as f64
    }

    fn per_miss(&self, total: u64) -> f64 {
        ratio(total, self.misses)
    }

    fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let d = durations_us(&self.spans, name);
        if d.is_empty() {
            0.0
        } else {
            quantile(&d, q)
        }
    }

    /// Total wall of the replayed submissions, ns.
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// Share of the replay's wall that no layer span covers: the self
    /// time of the spans that have children.
    pub fn unaccounted_frac(&self) -> f64 {
        let own = self_times(&self.spans);
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        let uncovered: u64 = own
            .iter()
            .zip(&has_children)
            .filter(|(_, &c)| c)
            .map(|(t, _)| t)
            .sum();
        ratio(uncovered, self.root_total_ns())
    }

    /// Self time per span name: (calls, total self ns), by name.
    pub fn self_time_table(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let own = self_times(&self.spans);
        let mut table = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let e = table.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += t;
        }
        table
    }

    /// The replay-side per-layer metrics, in report order.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let c = &self.counts;
        vec![
            (
                "codec.request_encode_us",
                "us",
                self.quantile_us("codec.request_encode", 0.5),
            ),
            (
                "codec.request_decode_us",
                "us",
                self.quantile_us("codec.request_decode", 0.5),
            ),
            (
                "codec.response_encode_us",
                "us",
                self.quantile_us("codec.response_encode", 0.5),
            ),
            (
                "codec.response_decode_us",
                "us",
                self.quantile_us("codec.response_decode", 0.5),
            ),
            ("codec.request_bytes", "bytes", mean(&self.request_bytes)),
            ("codec.response_bytes", "bytes", mean(&self.response_bytes)),
            (
                "plan_cache.fingerprint_us",
                "us",
                self.quantile_us("plan_cache.fingerprint", 0.5),
            ),
            (
                "core.optimize_us_p50",
                "us",
                self.quantile_us("core.optimize", 0.5),
            ),
            (
                "core.optimize_us_p99",
                "us",
                self.quantile_us("core.optimize", 0.99),
            ),
            (
                "core.region_dag_us",
                "us",
                self.per_miss_us("core.region_dag"),
            ),
            (
                "imperative.region_build_us",
                "us",
                self.per_miss_us("imperative.region_build"),
            ),
            (
                "volcano.cost_table_us",
                "us",
                self.per_miss_us("volcano.cost_table"),
            ),
            (
                "volcano.extract_us",
                "us",
                self.per_miss_us("volcano.extract"),
            ),
            (
                "volcano.count_plans_us",
                "us",
                self.per_miss_us("volcano.count_plans"),
            ),
            ("core.emit_us", "us", self.per_miss_us("core.emit")),
            (
                "core.original_cost_us",
                "us",
                self.per_miss_us("core.original_cost"),
            ),
            ("volcano.memo_groups", "count", self.per_miss(c.memo_groups)),
            ("volcano.memo_exprs", "count", self.per_miss(c.memo_exprs)),
            (
                "volcano.cost_memo_hit_ratio",
                "ratio",
                ratio(c.cost_memo_hits, c.cost_memo_hits + c.cost_memo_misses),
            ),
            (
                "minidb.estimate_cache_hit_ratio",
                "ratio",
                ratio(c.estimate_hits, c.estimate_hits + c.estimate_misses),
            ),
            (
                "interp.run_us_p50",
                "us",
                self.quantile_us("interp.run", 0.5),
            ),
            ("interp.stmts_executed", "count", self.round_stmts as f64),
            ("orm.round_trips", "count", self.round_trips as f64),
            ("orm.bytes", "bytes", self.round_bytes as f64),
            ("netsim.sim_ms", "ms", self.round_sim_ns as f64 / 1e6),
            ("trace.unaccounted_frac", "ratio", self.unaccounted_frac()),
        ]
    }

    /// Write every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\": {id}, \"submission\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.submission, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
