//! `stack-solver` — a self-contained QF_BV (bit-vector) decision procedure.
//!
//! This crate is the reproduction's stand-in for the Boolector SMT solver
//! used by the STACK checker (Wang et al., SOSP 2013). It provides:
//!
//! * a CDCL SAT core ([`sat::SatSolver`]) with two-watched-literal
//!   propagation, first-UIP clause learning, VSIDS, restarts, and solving
//!   under assumptions;
//! * a hash-consed bit-vector term language ([`term::TermPool`]) covering the
//!   operators needed to express the paper's undefined-behavior conditions
//!   (Figure 3): wrap-around arithmetic, comparisons (signed and unsigned),
//!   shifts, division, width conversion;
//! * a bit-blaster ([`blast::BitBlaster`]) translating terms to CNF;
//! * a query-level API ([`solver::BvSolver`]) with deterministic per-query
//!   resource budgets standing in for the paper's 5-second query timeout.
//!   Store misses that simulation cannot answer are decided on one
//!   persistent SAT instance per [`term::TermPool`] (per function, in the
//!   checker), with each assertion registered once as an assumption literal
//!   and toggled per query, so the checker's minimal-UB-set loop (paper
//!   Figure 8) does not re-pay bit-blasting per iteration;
//! * a memoized query cache ([`cache::QueryCache`]) answering structurally
//!   identical queries across threads, functions, and modules;
//! * pluggable query stores ([`store::QueryStore`]): the in-memory cache or
//!   a disk-backed store ([`store::DiskQueryStore`]) that persists
//!   fingerprint→result pairs across processes, so repeated archive scans
//!   (the paper's §6.5 workload) start warm;
//! * the store discipline the disk query store shares with the scan store
//!   of `stack-core`: one entry table ([`recordfile::Table`]) and the file
//!   that holds it ([`recordfile::RecordFile`]);
//! * the stable 128-bit hash ([`cache::mix`], [`cache::mix_bytes`]) every
//!   persisted key is built from;
//! * the one counter struct ([`stats::CheckStats`]) every layer from the
//!   SAT core to the scan summary counts into.
//!
//! The checker builds elimination and simplification queries (paper §3.2) as
//! boolean terms and asks [`solver::BvSolver::check`] for SAT/UNSAT; UNSAT
//! means the corresponding fragment is unstable code.

pub mod blast;
pub mod cache;
pub mod cnf;
pub mod lit;
pub mod model;
pub mod recordfile;
pub mod sat;
pub mod solver;
pub mod stats;
pub mod store;
pub mod term;

pub use blast::BitBlaster;
pub use cache::{canonical_key, mix, mix_bytes, CacheKey, QueryCache};
pub use cnf::{Clause, ClauseDb, ClauseRef};
pub use lit::{LBool, Lit, Var};
pub use model::Model;
pub use recordfile::{
    CacheStats, MergeError, MergeStats, RecordFile, SalvageReport, StoreInspection, Table,
};
pub use sat::{Budget, SatResult, SatSolver};
pub use solver::{free_variables, BvSolver, QueryResult};
pub use stats::CheckStats;
pub use store::{DiskQueryStore, QueryStore, ENCODING_REVISION, STORE_FORMAT_VERSION};
pub use term::{mask, to_signed, Sort, Term, TermId, TermKind, TermPool, MAX_WIDTH};
