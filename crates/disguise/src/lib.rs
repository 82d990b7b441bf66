//! # tdf-disguise
//!
//! Crash-atomic *reversible data disguising* — the owner-privacy
//! dimension of the paper made operational as a GDPR-style
//! unsubscribe/resubscribe workload, after the `decor`/`edna` line of
//! work (Wang et al.): when a user unsubscribes, the records they own
//! are not deleted (which would bias every aggregate and break
//! referential structure) but *decorrelated* — re-owned by a synthetic
//! **ghost** principal — while the sensitive payload is redacted or
//! retained per a declarative per-edge policy. Resubscribing restores
//! the original rows bit for bit.
//!
//! The robustness bar is the point of this crate: a disguise that can be
//! half-applied when the process dies is worse than no disguise (it
//! leaks *and* corrupts). Every disguise or restore is therefore a
//! transaction journalled in a checksummed write-ahead log *before* any
//! cell is touched:
//!
//! * [`policy`] — the per-edge decorrelation policy (which attribute is
//!   the ownership edge, what happens to each payload attribute) and the
//!   deterministic ghost-identity derivation;
//! * [`wal`] — the framed, FNV-1a-checksummed journal (`segio` codec
//!   idioms: little-endian framing, tmp+rename rewrites, fail-closed on
//!   torn or corrupt tails);
//! * [`engine`] — the transaction engine: plan → journal (commit) →
//!   apply, with bounded retry at the `disguise.wal_append` /
//!   `disguise.apply` / `disguise.restore` fault sites, idempotent
//!   replay, and recovery that rebuilds a state bit-identical to a
//!   clean run from the base dataset plus the journal.
//!
//! The crash contract, proven by the `crash_matrix` test battery: for
//! any crash injected mid-disguise, mid-restore or mid-recovery, a
//! restart recovers to a state whose row-stream fingerprint equals
//! either the fully-disguised or the fully-original dataset — never a
//! mix — and `restore(disguise(u))` is the identity on the row stream.

pub mod engine;
pub mod policy;
pub mod wal;

#[cfg(test)]
pub(crate) mod testsupport {
    use std::sync::Mutex;

    /// Fault plans are process-global; unit tests that install one must
    /// serialise on this lock so parallel tests never see each other's
    /// plans.
    static PLAN: Mutex<()> = Mutex::new(());

    pub fn with_fault_plan<T>(text: &str, f: impl FnOnce() -> T) -> T {
        let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        faultkit::set_plan(Some(faultkit::FaultPlan::parse(text).unwrap()));
        let out = f();
        faultkit::set_plan(None);
        out
    }

    /// For tests that exercise fault-sited code paths *without* wanting
    /// injection: hold the same lock so a concurrent fault test's plan
    /// cannot leak in.
    pub fn without_faults<T>(f: impl FnOnce() -> T) -> T {
        let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        faultkit::set_plan(None);
        f()
    }
}

pub use engine::{DisguiseEngine, DisguiseOutcome};
pub use policy::{owned_patients, owner_schema, DisguisePolicy, EdgeAction, EdgePolicy};
pub use wal::{CellOp, Journal, OpKind, RecoveryReport, TxnRecord};

use tdf_microdata::{segio, Dataset};

/// Typed failures of the disguise subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The user already has an active disguise; restore first.
    AlreadyDisguised(u64),
    /// The user has no active disguise to restore.
    NotDisguised(u64),
    /// The user owns no rows — nothing to disguise.
    NoRows(u64),
    /// An injected or real crash at the named fault site exhausted the
    /// bounded retry budget; the engine halts (crash-stop) and must be
    /// re-opened, which runs recovery.
    Crashed(&'static str),
    /// A previous crash poisoned this engine; re-open it to recover.
    Poisoned,
    /// The journal file is corrupt or unreadable (fail closed).
    Wal(String),
    /// The underlying dataset rejected an operation.
    Data(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::AlreadyDisguised(u) => write!(f, "user {u} is already disguised"),
            Error::NotDisguised(u) => write!(f, "user {u} has no active disguise"),
            Error::NoRows(u) => write!(f, "user {u} owns no rows"),
            Error::Crashed(site) => write!(f, "crash at fault site {site}"),
            Error::Poisoned => write!(f, "engine poisoned by an earlier crash; re-open to recover"),
            Error::Wal(m) => write!(f, "journal error: {m}"),
            Error::Data(m) => write!(f, "dataset error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<tdf_microdata::Error> for Error {
    fn from(e: tdf_microdata::Error) -> Self {
        Error::Data(e.to_string())
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Row-stream fingerprint of a dataset: FNV-1a over the canonical binary
/// segment image (schema, column buffers, missing bitmaps, dictionary
/// order — everything, bit for bit). Two datasets fingerprint equal iff
/// their stored representation is identical; this is the equality the
/// crash-matrix all-or-nothing assertions are stated in.
pub fn fingerprint(data: &Dataset) -> u64 {
    rngkit::fnv1a(&segio::encode_segment(data))
}
