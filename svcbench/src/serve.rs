//! The untraced wire run: a `CobraService` behind a `WireServer` on
//! loopback, driven by one `WireClient` in a closed loop.

use crate::corpus::{Corpus, Kind, Submission};
use crate::reference::References;
use cobra_server::{
    CacheOutcome, CobraService, ServerConfig, ServerCounters, ServerError, SessionId, SubmitReply,
    TenantSpec, WireClient, WireServer,
};
use interp::NormalizedOutcome;
use std::time::{Duration, Instant};

/// A started server with one connected client and a session per tenant.
pub struct Setup {
    pub server: WireServer,
    pub client: WireClient,
    pub sessions: Vec<SessionId>,
    pub refs: References,
    /// Priming replies that differed from their reference.
    pub priming_mismatches: u64,
    /// Wall time of [`Setup::new`], s.
    pub secs: f64,
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// Print a wrong reply with what reproduces it.
fn report_mismatch(
    corpus: &Corpus,
    tenant: usize,
    kind: Kind,
    cycle: usize,
    got: &NormalizedOutcome,
    expected: &NormalizedOutcome,
) {
    let t = &corpus.tenants[tenant];
    eprintln!(
        "mismatch: tenant {tenant} (generator seed {}, data seed {}, row_scale {}), \
         {kind:?} program, cycle {cycle}\n-- reply:\n{got}-- reference:\n{expected}",
        t.case.seed, t.data_seed, t.case.row_scale
    );
}

impl Setup {
    /// Build everything a run needs: the server's fixtures and tenants
    /// (release-default serving config, feedback off, no validation,
    /// faults off), the reference outcomes, one session per tenant, and
    /// one priming submission per tenant (checked like any other).
    pub fn new(corpus: &Corpus) -> Result<Setup, String> {
        let start = Instant::now();
        let service = CobraService::new(ServerConfig::default());
        for (i, t) in corpus.tenants.iter().enumerate() {
            let fx = t.fixture();
            service.register_tenant(
                TenantSpec::new(tenant_name(i), fx.db, fx.mapping, fx.funcs).feedback(false),
            );
        }
        let refs = References::build(corpus)?;
        let server = WireServer::spawn(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let mut client = WireClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut sessions = Vec::with_capacity(corpus.tenants.len());
        for i in 0..corpus.tenants.len() {
            sessions.push(
                client
                    .open_session(&tenant_name(i))
                    .map_err(|e| e.to_string())?,
            );
        }
        // Priming: the read program once per tenant. It fills the plan
        // cache for warm_serve and write_mix and warms each tenant's
        // estimate cache for cold_search, whose timed submissions are all
        // padded variants and never hit.
        let mut priming_mismatches = 0;
        for (i, t) in corpus.tenants.iter().enumerate() {
            let reply = client
                .submit(sessions[i], &t.read)
                .map_err(|e| format!("priming tenant {i}: {e}"))?;
            let expected = refs.expected(i, Kind::Read, 0).expect("cycle 0 is built");
            if reply.results != expected.results {
                priming_mismatches += 1;
                report_mismatch(corpus, i, Kind::Read, 0, &reply.results, &expected.results);
            }
        }
        Ok(Setup {
            server,
            client,
            sessions,
            refs,
            priming_mismatches,
            secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Close the client and stop the server, keeping the references.
    pub fn shutdown(self) -> References {
        drop(self.client);
        self.server.shutdown();
        self.refs
    }
}

/// How a reply compared with its reference.
enum Verdict {
    Match,
    Mismatch(NormalizedOutcome),
    /// The reference for this data state is built after the timed phase.
    Deferred(NormalizedOutcome),
    /// A typed error; `shed` when admission refused the request.
    Error {
        shed: bool,
    },
}

/// One timed submission.
pub struct Record {
    pub sub: Submission,
    /// Client-observed latency, ns.
    pub latency_ns: u64,
    /// The server's own wall time for the submission, ns.
    pub wall_ns: u64,
    pub cache: Option<CacheOutcome>,
    pub simulated_ns: u64,
    pub est_cost_ns: f64,
    pub budget_exhausted: bool,
    verdict: Verdict,
}

/// The timed phase and its verified outcome.
pub struct WireRun {
    pub records: Vec<Record>,
    /// Timed-phase wall, s.
    pub wall_s: f64,
    pub errors: u64,
    pub shed: u64,
    pub mismatches: u64,
    /// Reference ÷ reply simulated time, one per completed submission.
    pub speedups: Vec<f64>,
    /// Time spent building deferred references after the timed phase, s.
    pub verify_s: f64,
    pub counters_before: ServerCounters,
    pub counters_after: ServerCounters,
    pub cache_entries: usize,
}

impl WireRun {
    pub fn completed(&self) -> u64 {
        self.records.len() as u64 - self.errors
    }

    /// Every submission that failed: typed errors, sheds and mismatches.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

fn record(
    sub: Submission,
    latency: Duration,
    reply: Result<SubmitReply, ServerError>,
    refs: &References,
) -> Record {
    let latency_ns = latency.as_nanos() as u64;
    match reply {
        Ok(reply) => {
            let verdict = match refs.expected(sub.tenant, sub.kind, sub.cycle) {
                Some(e) if e.results == reply.results => Verdict::Match,
                Some(_) => Verdict::Mismatch(reply.results),
                None => Verdict::Deferred(reply.results),
            };
            Record {
                sub,
                latency_ns,
                wall_ns: reply.wall_ns,
                cache: Some(reply.cache),
                simulated_ns: reply.simulated_ns,
                est_cost_ns: reply.est_cost_ns,
                budget_exhausted: reply.tags.iter().any(|t| t == "budget-exhausted"),
                verdict,
            }
        }
        Err(e) => Record {
            sub,
            latency_ns,
            wall_ns: 0,
            cache: None,
            simulated_ns: 0,
            est_cost_ns: 0.0,
            budget_exhausted: false,
            verdict: Verdict::Error {
                shed: matches!(e, ServerError::Overloaded { .. }),
            },
        },
    }
}

/// Submit the schedule in a closed loop for `seconds`, then check every
/// reply against its reference.
pub fn timed_run(corpus: &Corpus, setup: &mut Setup, seconds: f64) -> Result<WireRun, String> {
    let service = setup.server.service().clone();
    let counters_before = service.counters();
    let mut records = Vec::new();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while start.elapsed() < deadline {
        let sub = corpus.submission(i);
        let program = corpus.program(&sub);
        let t0 = Instant::now();
        let reply = setup.client.submit(setup.sessions[sub.tenant], &program);
        let latency = t0.elapsed();
        records.push(record(sub, latency, reply, &setup.refs));
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let counters_after = service.counters();
    let cache_entries = service.cache_len();

    // Verification: build the references the timed phase outran, then
    // settle every deferred verdict.
    let verify_start = Instant::now();
    let mut cycles = vec![0usize; corpus.tenants.len()];
    for r in &records {
        cycles[r.sub.tenant] = cycles[r.sub.tenant].max(r.sub.cycle + 1);
    }
    for (tenant, &n) in cycles.iter().enumerate() {
        setup.refs.extend(corpus, tenant, n)?;
    }
    let (mut errors, mut shed, mut mismatches) = (0, 0, 0);
    let mut speedups = Vec::with_capacity(records.len());
    let mut reported = std::collections::HashSet::new();
    for r in &mut records {
        if let Verdict::Deferred(results) = &r.verdict {
            let e = setup
                .refs
                .expected(r.sub.tenant, r.sub.kind, r.sub.cycle)
                .expect("extended above");
            r.verdict = if &e.results == results {
                Verdict::Match
            } else {
                Verdict::Mismatch(results.clone())
            };
        }
        match r.verdict {
            Verdict::Match => {
                let e = setup
                    .refs
                    .expected(r.sub.tenant, r.sub.kind, r.sub.cycle)
                    .expect("verified against it");
                speedups.push(e.elapsed_ns as f64 / r.simulated_ns.max(1) as f64);
            }
            Verdict::Mismatch(ref got) => {
                // One report per tenant, program and cycle is enough.
                let first = reported.insert((r.sub.tenant, r.sub.kind, r.sub.cycle));
                if first {
                    let e = setup
                        .refs
                        .expected(r.sub.tenant, r.sub.kind, r.sub.cycle)
                        .expect("verified against it");
                    report_mismatch(
                        corpus,
                        r.sub.tenant,
                        r.sub.kind,
                        r.sub.cycle,
                        got,
                        &e.results,
                    );
                }
                mismatches += 1;
            }
            Verdict::Error { shed: s } => {
                errors += 1;
                shed += u64::from(s);
            }
            Verdict::Deferred(_) => unreachable!("settled above"),
        }
    }
    Ok(WireRun {
        records,
        wall_s,
        errors,
        shed,
        mismatches,
        speedups,
        verify_s: verify_start.elapsed().as_secs_f64(),
        counters_before,
        counters_after,
        cache_entries,
    })
}
