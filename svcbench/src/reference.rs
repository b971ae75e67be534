//! Independent reference outcomes.
//!
//! The reference for a submission is the *submitted* (unoptimized)
//! program run by the interpreter on the row engine against a fixture
//! built separately from the server's. The optimizer, the plan cache and
//! the columnar engine — the code under test — take no part in it.
//! Outcomes are normalized over the entry parameters exactly as the
//! server normalizes its replies, so the two compare with `==`.
//!
//! One outcome is kept per distinct (tenant, program, data state). For
//! writing workloads the reference fixture replays the tenant's writes in
//! submission order, one cycle at a time.

use crate::corpus::{padded, Corpus, Kind};
use imperative::ast::Program;
use interp::{NormalizedOutcome, Snapshot};
use minidb::{ExecEngine, Value};
use netsim::NetworkProfile;
use workloads::harness::{run_on_engine, Fixture};

/// What a submission must return, and what the original program costs.
pub struct Expected {
    pub results: NormalizedOutcome,
    /// Simulated time of the unoptimized program, ns.
    pub elapsed_ns: u64,
}

struct TenantRef {
    /// The reference copy of the tenant's data; advances one write per
    /// cycle.
    fixture: Fixture,
    /// Per cycle: the read program's outcome on the cycle's data state.
    read: Vec<Expected>,
    /// Per cycle: the writing program's outcome on the same state.
    write: Vec<Expected>,
}

pub struct References {
    tenants: Vec<TenantRef>,
    writes: bool,
}

/// Run the unoptimized `program` on the row engine.
fn run(fixture: &Fixture, program: &Program) -> Result<Expected, String> {
    let run = run_on_engine(
        fixture,
        NetworkProfile::slow_remote(),
        ExecEngine::Row,
        program,
    )
    .map_err(|e| format!("reference run failed: {e}"))?;
    let params: Vec<&str> = program.entry().params.iter().map(String::as_str).collect();
    Ok(Expected {
        results: run.outcome.normalized_with_vars(&params),
        elapsed_ns: run.outcome.elapsed_ns,
    })
}

impl References {
    /// Reference outcomes for every tenant's first cycle. For padded
    /// workloads this also confirms, per tenant, that the padding is
    /// unobservable, so the unpadded outcome stands for every variant.
    pub fn build(corpus: &Corpus) -> Result<References, String> {
        let writes = corpus.workload.writes();
        let mut refs = References {
            tenants: Vec::with_capacity(corpus.tenants.len()),
            writes,
        };
        for (i, t) in corpus.tenants.iter().enumerate() {
            refs.tenants.push(TenantRef {
                fixture: t.fixture(),
                read: Vec::new(),
                write: Vec::new(),
            });
            refs.extend(corpus, i, 1)?;
            if corpus.submission(0).pad.is_some() {
                let pad = run(&t.fixture(), &padded(&t.read, 0))?;
                if pad.results != refs.tenants[i].read[0].results {
                    return Err(format!("tenant {i}: padding changed the reference outcome"));
                }
            }
        }
        Ok(refs)
    }

    /// Make sure tenant `tenant` has references for its first `cycles`
    /// cycles, replaying its writes on the reference fixture.
    pub fn extend(&mut self, corpus: &Corpus, tenant: usize, cycles: usize) -> Result<(), String> {
        let t = &corpus.tenants[tenant];
        let r = &mut self.tenants[tenant];
        while r.read.len() < cycles {
            r.read.push(run(&r.fixture, &t.read)?);
            if self.writes {
                r.write.push(run(&r.fixture, &t.case.program)?);
            }
        }
        Ok(())
    }

    /// The reference for a submission, if its cycle has been computed.
    pub fn expected(&self, tenant: usize, kind: Kind, cycle: usize) -> Option<&Expected> {
        let r = &self.tenants[tenant];
        match kind {
            Kind::Read => r.read.get(cycle),
            Kind::Write => r.write.get(cycle),
        }
    }

    /// Self-test hook: make tenant `tenant`'s first read outcome wrong.
    pub fn corrupt(&mut self, tenant: usize) {
        let expected = &mut self.tenants[tenant].read[0].results;
        expected
            .prints
            .push(Snapshot::Scalar(Value::str("corrupted reference")));
    }
}
