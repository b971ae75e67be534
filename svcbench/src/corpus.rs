//! Workload corpora: the generated programs, one tenant per program, and
//! the submission schedule a single closed-loop client follows.
//!
//! The programs of a workload are the first programs of its class
//! (read-only or writing) in one generator stream, by default stream 0.
//! The seed generates everything else — every tenant's table contents,
//! the round-robin order of tenants and the padding values — so a seed
//! reproduces the exact submission sequence, and another seed gives other
//! data and another order over the same programs. (Drawing the programs
//! themselves from the seed made the figures a property of the sample:
//! the time per program is heavy-tailed, and five seeds spread
//! submissions/s over 1073–1835 on cold_search.) Another program stream
//! checks a result on programs it was not tuned on.

use cobra_core::transforms::updated_tables;
use imperative::ast::{Expr, Program, Stmt, StmtKind};
use netsim::StdRng;
use std::borrow::Cow;
use workloads::genprog::{GenCase, GenConfig};
use workloads::harness::Fixture;

/// Separates the data-seed stream from the program stream.
const DATA_SALT: u64 = 0xDA7A;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only programs, every submission a never-seen variant: every
    /// plan-cache lookup misses and the optimizer does most of the work.
    ColdSearch,
    /// Read-only programs on larger tables, primed in set-up: every
    /// lookup hits and execution does most of the work.
    WarmServe,
    /// Writing programs: three reads then one write per tenant, so each
    /// write moves the stats epoch and the next lookups miss.
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdSearch,
        Workload::WarmServe,
        Workload::WriteMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSearch => "cold_search",
            Workload::WarmServe => "warm_serve",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Tenants (one generated program each).
    fn tenants(self) -> usize {
        match self {
            Workload::ColdSearch => 256,
            Workload::WarmServe => 128,
            Workload::WriteMix => 64,
        }
    }

    /// Multiplier on the generated table sizes.
    pub fn row_scale(self) -> f64 {
        match self {
            Workload::ColdSearch => 1.0,
            Workload::WarmServe => 20.0,
            Workload::WriteMix => 4.0,
        }
    }

    /// Whether the workload serves the writing programs (else the
    /// read-only ones).
    pub fn writes(self) -> bool {
        self == Workload::WriteMix
    }

    /// Submissions per tenant per cycle: write_mix submits the read
    /// variant three times, then the writing original.
    pub fn period(self) -> u64 {
        match self {
            Workload::WriteMix => 4,
            _ => 1,
        }
    }
}

/// One tenant's program and data.
pub struct TenantCase {
    /// The generated case at the workload's row scale; `case.program` is
    /// the program as generated.
    pub case: GenCase,
    /// The program with every `update` removed (the case's own program for
    /// read-only seeds).
    pub read: Program,
    /// Seed of the tenant's table contents.
    pub data_seed: u64,
}

impl TenantCase {
    /// A fresh, independent copy of the tenant's database.
    pub fn fixture(&self) -> Fixture {
        self.case
            .schema
            .build_fixture(self.data_seed, self.case.row_scale)
    }
}

/// Which of a tenant's programs a submission sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Read,
    Write,
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    pub tenant: usize,
    pub kind: Kind,
    /// Writes the tenant has completed before this submission: the
    /// data state it runs against.
    pub cycle: usize,
    /// The value of the unused `let pad_<n> = n` prepended to make the
    /// program never seen before (cold_search only).
    pub pad: Option<u64>,
}

pub struct Corpus {
    pub workload: Workload,
    pub seed: u64,
    pub tenants: Vec<TenantCase>,
    /// Round-robin order of tenant indices (a seeded permutation).
    order: Vec<usize>,
}

/// SplitMix64 finalizer: derives independent seeds from a base seed and
/// a stream index.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Corpus {
    /// The workload's corpus for `seed`. Generator seeds come from the
    /// program stream `programs` and are split into read-only and writing
    /// programs by the tables they update; data seeds and the order come
    /// from `seed`.
    pub fn generate(workload: Workload, seed: u64, programs: u64) -> Corpus {
        let cfg = GenConfig::default();
        let mut tenants = Vec::with_capacity(workload.tenants());
        let mut stream = 0u64;
        while tenants.len() < workload.tenants() {
            let case = GenCase::from_seed(mix(programs, stream), &cfg);
            stream += 1;
            if updated_tables(&case.program).is_empty() == workload.writes() {
                continue;
            }
            let case = case.with_row_scale(workload.row_scale());
            let mut read = case.program.entry().clone();
            read.body = without_updates(&read.body);
            let read = case.program.with_entry(read);
            let data_seed = mix(seed ^ DATA_SALT, tenants.len() as u64);
            tenants.push(TenantCase {
                case,
                read,
                data_seed,
            });
        }
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Corpus {
            workload,
            seed,
            tenants,
            order,
        }
    }

    /// Submissions in one full round: every tenant through one cycle.
    pub fn round_len(&self) -> u64 {
        self.tenants.len() as u64 * self.workload.period()
    }

    /// The `i`-th submission of the schedule.
    pub fn submission(&self, i: u64) -> Submission {
        let k = self.tenants.len() as u64;
        let round = i / k;
        let tenant = self.order[(i % k) as usize];
        match self.workload {
            Workload::ColdSearch => Submission {
                tenant,
                kind: Kind::Read,
                cycle: 0,
                pad: Some(i),
            },
            Workload::WarmServe => Submission {
                tenant,
                kind: Kind::Read,
                cycle: 0,
                pad: None,
            },
            Workload::WriteMix => Submission {
                tenant,
                kind: if round % 4 == 3 {
                    Kind::Write
                } else {
                    Kind::Read
                },
                cycle: (round / 4) as usize,
                pad: None,
            },
        }
    }

    /// The program a submission sends.
    pub fn program(&self, s: &Submission) -> Cow<'_, Program> {
        let t = &self.tenants[s.tenant];
        let base = match s.kind {
            Kind::Read => &t.read,
            Kind::Write => &t.case.program,
        };
        match s.pad {
            None => Cow::Borrowed(base),
            Some(n) => Cow::Owned(padded(base, n)),
        }
    }
}

/// `program` with an unused `let pad_<n> = n` prepended: the same
/// observable behaviour under a new plan-cache fingerprint.
pub fn padded(program: &Program, n: u64) -> Program {
    let mut entry = program.entry().clone();
    entry.body.insert(
        0,
        Stmt::new(StmtKind::Let(format!("pad_{n}"), Expr::lit(n as i64))),
    );
    program.with_entry(entry)
}

/// `stmts` with every `update` statement removed, at any depth.
fn without_updates(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::UpdateQuery { .. }))
        .map(|s| {
            let kind = match &s.kind {
                StmtKind::ForEach { var, iter, body } => StmtKind::ForEach {
                    var: var.clone(),
                    iter: iter.clone(),
                    body: without_updates(body),
                },
                StmtKind::While { cond, body } => StmtKind::While {
                    cond: cond.clone(),
                    body: without_updates(body),
                },
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => StmtKind::If {
                    cond: cond.clone(),
                    then_branch: without_updates(then_branch),
                    else_branch: without_updates(else_branch),
                },
                StmtKind::TryCatch { body, handler } => StmtKind::TryCatch {
                    body: without_updates(body),
                    handler: without_updates(handler),
                },
                other => other.clone(),
            };
            Stmt { kind, line: s.line }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_in_the_seed() {
        let a = Corpus::generate(Workload::WriteMix, 7, 0);
        let b = Corpus::generate(Workload::WriteMix, 7, 0);
        assert_eq!(a.order, b.order);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.case.seed, y.case.seed);
            assert_eq!(x.data_seed, y.data_seed);
            assert_eq!(x.read, y.read);
        }
    }

    #[test]
    fn seeds_share_programs_but_not_data_or_order() {
        let a = Corpus::generate(Workload::ColdSearch, 1, 0);
        let b = Corpus::generate(Workload::ColdSearch, 2, 0);
        assert!(a
            .tenants
            .iter()
            .zip(&b.tenants)
            .all(|(x, y)| x.read == y.read));
        assert!(a
            .tenants
            .iter()
            .zip(&b.tenants)
            .all(|(x, y)| x.data_seed != y.data_seed));
        assert_ne!(a.order, b.order);
    }

    #[test]
    fn read_variants_do_not_write() {
        let c = Corpus::generate(Workload::WriteMix, 3, 0);
        for t in &c.tenants {
            assert!(!updated_tables(&t.case.program).is_empty());
            assert!(updated_tables(&t.read).is_empty());
        }
    }

    #[test]
    fn write_mix_cycles_three_reads_then_a_write() {
        let c = Corpus::generate(Workload::WriteMix, 3, 0);
        let k = c.tenants.len() as u64;
        let kinds: Vec<Kind> = (0..8).map(|r| c.submission(r * k).kind).collect();
        use Kind::*;
        assert_eq!(kinds, [Read, Read, Read, Write, Read, Read, Read, Write]);
        assert_eq!(c.submission(4 * k).cycle, 1);
    }
}
