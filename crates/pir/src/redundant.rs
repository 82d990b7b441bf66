//! (m, t)-redundant multi-server XOR PIR: byzantine/silent servers are
//! detected and masked.
//!
//! The basic [`crate::linear`] scheme trusts every server: one corrupted
//! answer XORs straight into the reconstructed record and the client
//! cannot tell. This module replicates the 2-server CGKS retrieval across
//! **disjoint server pairs** — servers `(2p, 2p+1)` form pair `p` — and
//! verifies each pair's reconstruction against a per-record checksum
//! held in a parallel tag table ([`VerifiedDatabase`]). With `m ≥ 2(t + 1)`
//! servers the client survives any `t` faulty servers, whatever they do:
//!
//! * a **silent** server (drop / timeout) fails its pair after a bounded
//!   number of deterministic retries; the client fails over to the next
//!   pair;
//! * a **byzantine** server (corrupted answer) makes its pair's
//!   reconstruction fail the checksum; the client discards it and fails
//!   over — a wrong record is *never* returned, because every returned
//!   record passed verification;
//! * `t` faults can spoil at most `t` pairs, so one of the `t + 1` pairs
//!   is clean and verification accepts it.
//!
//! Pairs are disjoint, so privacy degrades gracefully: each pair sees an
//! independent 2-share split of the selection vector and no server ever
//! sees more than one share — the collusion threshold of the underlying
//! scheme is unchanged.
//!
//! **Cost.** With no faults only pair 0 is queried: the overhead over a
//! plain 2-server retrieval is just the checksum bytes on the downlink —
//! words scanned are *identical*. At `t = 1` (worst case, one spoiled
//! pair) the client scans at most 2× the words of the fault-free run,
//! meeting the `< 2×` budget of EXPERIMENTS P4 in every non-degraded run
//! and exactly 2× only when a fault actually fired. Tags live in their
//! own [`TAG_BYTES`]-byte-record table rather than appended inline, so
//! the payload scan keeps the original record stride — appending 8 bytes
//! to every record was measured to cost ~3× wall time on 32-byte records
//! by breaking the XOR kernel's vectorization-friendly layout.
//!
//! Faults are injected through `faultkit` at two sites: `pir.server_drop`
//! (a server never answers this attempt) and `pir.corrupt_word` (a server
//! answers with one 64-bit word flipped). Timeouts and backoff are
//! *simulated deterministically* — accounted in milliseconds, never
//! wall-clock-measured — so retrieval outcomes are reproducible.

use crate::bits::BitVec;
use crate::cost::{packed_mask_bits, CostReport};
use crate::linear::Query;
use crate::store::Database;
use rngkit::Rng;
use std::fmt;

/// Bytes of checksum per record in a [`VerifiedDatabase`]'s tag table.
pub const TAG_BYTES: usize = 8;

/// FNV-1a over the record index and payload — the per-record checksum.
/// Keying by index means a byzantine server cannot substitute one valid
/// record (with its valid tag) for another.
fn record_tag(index: usize, payload: &[u8]) -> u64 {
    rngkit::fnv1a_extend(rngkit::fnv1a(&(index as u64).to_le_bytes()), payload)
}

/// A replicated database paired with a parallel table of per-record
/// [`TAG_BYTES`]-byte checksums over `(index, payload)`, so a client can
/// verify any reconstructed record without trusting the servers. Every
/// server holds both tables and answers one selection mask against each;
/// keeping tags out of the payload records preserves the payload scan's
/// memory stride (see the module docs for the measured cost of inlining).
#[derive(Debug, Clone)]
pub struct VerifiedDatabase {
    payloads: Database,
    tags: Database,
}

impl VerifiedDatabase {
    /// Tags and stores `records` (all the same length, like
    /// [`Database::new`]).
    pub fn new(records: Vec<Vec<u8>>) -> Self {
        let tags = records
            .iter()
            .enumerate()
            .map(|(i, r)| record_tag(i, r).to_le_bytes().to_vec())
            .collect();
        Self {
            payloads: Database::new(records),
            tags: Database::new(tags),
        }
    }

    /// Tags an existing plain database.
    pub fn from_database(db: &Database) -> Self {
        Self::new((0..db.len()).map(|i| db.record(i).to_vec()).collect())
    }

    /// The payload replica every server holds.
    pub fn database(&self) -> &Database {
        &self.payloads
    }

    /// The checksum table every server holds alongside the payloads.
    pub fn tags(&self) -> &Database {
        &self.tags
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.payloads.len() == 0
    }

    /// Bytes per payload record.
    pub fn payload_size(&self) -> usize {
        self.payloads.record_size()
    }

    /// True iff `payload` and `tag` reconstruct the checksummed record
    /// stored at `index`.
    fn verify(&self, index: usize, payload: &[u8], tag: &[u8]) -> bool {
        record_tag(index, payload).to_le_bytes() == tag
    }
}

/// Deterministic per-server retry schedule. All durations are simulated
/// accounting (reported in [`Robust::waited_ms`]), never measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first, per server.
    pub max_retries: u32,
    /// Simulated per-attempt timeout in milliseconds.
    pub timeout_ms: u64,
    /// Simulated backoff before retry `r` is `backoff_ms << r`.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            timeout_ms: 10,
            backoff_ms: 1,
        }
    }
}

/// Why a redundant retrieval failed. Degraded-but-correct outcomes are
/// *not* errors — they return [`Robust`] with `degraded = true`; an error
/// means no verified record could be produced (never a wrong record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PirError {
    /// `m < 2(t + 1)`: not enough servers to mask `t` faults.
    TooFewServers {
        /// Servers available.
        servers: usize,
        /// Servers required for the requested tolerance.
        needed: usize,
    },
    /// Every pair was spoiled — more than `t` faulty servers, or an
    /// unlucky fault plan. Carries the evidence gathered on the way.
    Exhausted {
        /// Pairs attempted (always `t + 1`).
        pairs_tried: usize,
        /// Server attempts that timed out (after retries).
        timeouts: u64,
        /// Pair reconstructions that failed checksum verification.
        corrupt_pairs: u64,
    },
}

impl fmt::Display for PirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PirError::TooFewServers { servers, needed } => write!(
                f,
                "redundant PIR needs {needed} servers for this fault tolerance, have {servers}"
            ),
            PirError::Exhausted {
                pairs_tried,
                timeouts,
                corrupt_pairs,
            } => write!(
                f,
                "all {pairs_tried} server pairs failed \
                 ({timeouts} timeouts, {corrupt_pairs} corrupt reconstructions)"
            ),
        }
    }
}

impl std::error::Error for PirError {}

/// A successful redundant retrieval: the verified record plus an account
/// of what was survived along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Robust {
    /// The verified record payload (checksum stripped).
    pub record: Vec<u8>,
    /// True when any fault was masked on the way — the result is still
    /// correct (it passed verification), but service was degraded.
    pub degraded: bool,
    /// Pairs queried until one verified (1 = fault-free fast path).
    pub pairs_tried: usize,
    /// Server attempts that timed out and were retried or failed over.
    pub timeouts_masked: u64,
    /// Pair reconstructions discarded for failing the checksum.
    pub corrupt_pairs_masked: u64,
    /// Total simulated waiting (timeouts + backoff), in milliseconds.
    pub waited_ms: u64,
    /// Communication/computation accounting for everything attempted.
    pub cost: CostReport,
}

/// Per-retrieval running tallies, flushed to obs once at the end.
#[derive(Default)]
struct Stats {
    words_scanned: u64,
    server_ops: u64,
    answers: u64,
    attempts_sent: u64,
    timeouts: u64,
    corrupt_pairs: u64,
    waited_ms: u64,
}

/// One server's answer under the fault plan: retries on injected drops
/// (accounting simulated timeout + exponential backoff per retry) and
/// applies injected word corruption. `None` means the server stayed
/// silent through every attempt.
fn query_server(
    vdb: &VerifiedDatabase,
    share: &BitVec,
    policy: &RetryPolicy,
    stats: &mut Stats,
) -> Option<(Vec<u8>, Vec<u8>)> {
    for attempt in 0..=policy.max_retries {
        stats.attempts_sent += 1;
        if faultkit::fire("pir.server_drop") {
            stats.timeouts += 1;
            stats.waited_ms += policy.timeout_ms + (policy.backoff_ms << attempt);
            continue;
        }
        // One mask selects from both tables in a single fused sweep: the
        // payload answer and the matching checksum answer.
        let (mut payload, mut tag) = vdb.payloads.xor_selected_joint(&vdb.tags, share);
        stats.words_scanned += share.words().len() as u64;
        stats.server_ops += share.count_ones();
        stats.answers += 1;
        if faultkit::fire("pir.corrupt_word") {
            // A byzantine server: flip one answer bit. The bit position
            // varies with the answer ordinal so the two corruptions of
            // one pair can never cancel in the XOR.
            let flipped = 1u8 << ((stats.answers - 1) % 8);
            match payload.first_mut() {
                Some(b) => *b ^= flipped,
                None => tag[0] ^= flipped, // zero-length payloads
            }
        }
        return Some((payload, tag));
    }
    None
}

/// Retrieves record `index` from `m` replicas of `vdb`, tolerating up to
/// `t` faulty (silent or byzantine) servers. Requires `m ≥ 2(t + 1)`.
///
/// Pairs are tried in order; the first whose reconstruction passes the
/// checksum wins. Returns [`Robust`] (possibly `degraded`) on success,
/// a typed [`PirError`] — never a wrong record — on failure.
///
/// ```
/// use tdf_pir::redundant::{retrieve, RetryPolicy, VerifiedDatabase};
/// use rngkit::SeedableRng;
///
/// let vdb = VerifiedDatabase::new(vec![vec![1u8], vec![2], vec![3]]);
/// let mut rng = rngkit::rngs::StdRng::seed_from_u64(7);
/// let out = retrieve(&mut rng, &vdb, 4, 1, 1, &RetryPolicy::default()).unwrap();
/// assert_eq!(out.record, vec![2]);
/// assert!(!out.degraded); // no faults: pair 0 answered and verified
/// ```
pub fn retrieve<R: Rng + ?Sized>(
    rng: &mut R,
    vdb: &VerifiedDatabase,
    m: usize,
    t: usize,
    index: usize,
    policy: &RetryPolicy,
) -> Result<Robust, PirError> {
    let needed = 2 * (t + 1);
    if m < needed {
        return Err(PirError::TooFewServers { servers: m, needed });
    }
    assert!(index < vdb.len(), "index out of range");
    let mut stats = Stats::default();
    let mut outcome = None;
    let mut pairs_attempted = 0usize;
    for pair in 0..=t {
        pairs_attempted = pair + 1;
        let q = Query::build(rng, vdb.len(), 2, index);
        let a = query_server(vdb, q.share(0), policy, &mut stats);
        let b = query_server(vdb, q.share(1), policy, &mut stats);
        let (Some((mut payload, mut tag)), Some((payload_b, tag_b))) = (a, b) else {
            continue; // a silent server spoils the pair; fail over
        };
        for (x, y) in payload.iter_mut().zip(&payload_b) {
            *x ^= y;
        }
        for (x, y) in tag.iter_mut().zip(&tag_b) {
            *x ^= y;
        }
        if vdb.verify(index, &payload, &tag) {
            let degraded = pair > 0 || stats.timeouts > 0;
            outcome = Some((payload, degraded, pair + 1));
            break;
        }
        stats.corrupt_pairs += 1;
    }
    obs::count("pir.redundant.retrievals", 1);
    obs::count("pir.words_scanned", stats.words_scanned);
    obs::count("pir.redundant.timeouts", stats.timeouts);
    obs::count("pir.redundant.corrupt_pairs", stats.corrupt_pairs);
    let cost = CostReport {
        uplink_bits: packed_mask_bits(1, vdb.len()) * stats.attempts_sent,
        downlink_bits: stats.answers * ((vdb.payload_size() + TAG_BYTES) * 8) as u64,
        server_ops: stats.server_ops,
        words_scanned: stats.words_scanned,
        servers: 2 * pairs_attempted as u32,
    };
    match outcome {
        Some((record, degraded, pairs_tried)) => {
            if degraded {
                obs::count("pir.redundant.degraded", 1);
            }
            Ok(Robust {
                record,
                degraded,
                pairs_tried,
                timeouts_masked: stats.timeouts,
                corrupt_pairs_masked: stats.corrupt_pairs,
                waited_ms: stats.waited_ms,
                cost,
            })
        }
        None => {
            obs::count("pir.redundant.exhausted", 1);
            Err(PirError::Exhausted {
                pairs_tried: t + 1,
                timeouts: stats.timeouts,
                corrupt_pairs: stats.corrupt_pairs,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;
    use std::sync::Mutex;

    /// The fault plan is process-global: serialise tests that install one.
    static PLAN: Mutex<()> = Mutex::new(());

    fn with_fault_plan<T>(text: &str, f: impl FnOnce() -> T) -> T {
        let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        faultkit::set_plan(Some(faultkit::FaultPlan::parse(text).unwrap()));
        let out = f();
        faultkit::set_plan(None);
        out
    }

    fn rng() -> rngkit::rngs::StdRng {
        rngkit::rngs::StdRng::seed_from_u64(4242)
    }

    fn vdb(n: usize) -> VerifiedDatabase {
        VerifiedDatabase::new(
            (0..n)
                .map(|i| vec![i as u8, (i * 13) as u8, 0xC4])
                .collect(),
        )
    }

    #[test]
    fn fault_free_retrieval_is_correct_and_not_degraded() {
        let vdb = vdb(50);
        let mut r = rng();
        for i in 0..vdb.len() {
            let out = retrieve(&mut r, &vdb, 4, 1, i, &RetryPolicy::default()).unwrap();
            assert_eq!(out.record, vec![i as u8, (i * 13) as u8, 0xC4], "index {i}");
            assert!(!out.degraded);
            assert_eq!(out.pairs_tried, 1);
            assert_eq!(out.waited_ms, 0);
        }
    }

    #[test]
    fn fault_free_words_scanned_match_a_plain_two_server_retrieval() {
        let vdb = vdb(500);
        let mut r = rng();
        let out = retrieve(&mut r, &vdb, 4, 1, 7, &RetryPolicy::default()).unwrap();
        assert_eq!(
            out.cost.words_scanned,
            crate::cost::linear_scan_words(2, 500),
            "no-fault fast path queries exactly one pair"
        );
    }

    #[test]
    fn too_few_servers_is_a_typed_error() {
        let vdb = vdb(8);
        let mut r = rng();
        assert_eq!(
            retrieve(&mut r, &vdb, 3, 1, 0, &RetryPolicy::default()),
            Err(PirError::TooFewServers {
                servers: 3,
                needed: 4
            })
        );
    }

    #[test]
    fn one_dropped_server_is_retried_and_masked() {
        // Budget 1 at rate 1: exactly the first attempt drops; the retry
        // succeeds, so pair 0 still verifies — degraded but correct.
        let out = with_fault_plan("pir.server_drop=1", || {
            let vdb = vdb(40);
            let mut r = rng();
            retrieve(&mut r, &vdb, 4, 1, 9, &RetryPolicy::default())
        })
        .unwrap();
        assert_eq!(out.record[0], 9);
        assert!(out.degraded);
        assert_eq!(out.pairs_tried, 1);
        assert_eq!(out.timeouts_masked, 1);
        assert!(out.waited_ms > 0, "simulated timeout + backoff accounted");
    }

    #[test]
    fn a_silent_server_beyond_retries_fails_over_to_the_next_pair() {
        // Three drops at rate 1 exhaust server 0's attempts (1 + 2
        // retries): pair 0 dies silent, pair 1 answers and verifies.
        let out = with_fault_plan("pir.server_drop=3", || {
            let vdb = vdb(40);
            let mut r = rng();
            retrieve(&mut r, &vdb, 4, 1, 11, &RetryPolicy::default())
        })
        .unwrap();
        assert_eq!(out.record[0], 11);
        assert!(out.degraded);
        assert_eq!(out.pairs_tried, 2);
        assert_eq!(out.timeouts_masked, 3);
    }

    #[test]
    fn a_corrupt_answer_is_detected_and_masked_within_two_x_words() {
        let baseline = {
            let vdb = vdb(300);
            let mut r = rng();
            retrieve(&mut r, &vdb, 4, 1, 23, &RetryPolicy::default()).unwrap()
        };
        let out = with_fault_plan("pir.corrupt_word=1", || {
            let vdb = vdb(300);
            let mut r = rng();
            retrieve(&mut r, &vdb, 4, 1, 23, &RetryPolicy::default())
        })
        .unwrap();
        assert_eq!(out.record, baseline.record, "masked, still correct");
        assert!(out.degraded);
        assert_eq!(out.pairs_tried, 2);
        assert_eq!(out.corrupt_pairs_masked, 1);
        assert_eq!(
            out.cost.words_scanned,
            2 * baseline.cost.words_scanned,
            "t = 1 failover costs exactly 2× the fault-free scan"
        );
    }

    #[test]
    fn beyond_t_faults_yields_a_typed_error_never_a_wrong_record() {
        // Every answer corrupted (rate 1, unbounded budget): no pair can
        // verify — the per-answer bit positions never cancel.
        let err = with_fault_plan("pir.corrupt_word=0", || {
            let vdb = vdb(40);
            let mut r = rng();
            retrieve(&mut r, &vdb, 6, 2, 5, &RetryPolicy::default())
        })
        .unwrap_err();
        match err {
            PirError::Exhausted {
                pairs_tried,
                corrupt_pairs,
                ..
            } => {
                assert_eq!(pairs_tried, 3);
                assert!(corrupt_pairs >= 1);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }

        // Every server silent: same refusal, via timeouts.
        let err = with_fault_plan("pir.server_drop=0", || {
            let vdb = vdb(40);
            let mut r = rng();
            retrieve(&mut r, &vdb, 4, 1, 5, &RetryPolicy::default())
        })
        .unwrap_err();
        match err {
            PirError::Exhausted { timeouts, .. } => {
                // 2 pairs × 2 servers × (1 + 2 retries) attempts.
                assert_eq!(timeouts, 12);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn randomized_fault_plans_never_return_a_wrong_record() {
        // Whatever the plan injects, every Ok is the true record.
        let vdb = vdb(60);
        for seed in 0..30u64 {
            let plan = format!(
                "pir.server_drop=0@0.{:02},pir.corrupt_word=0@0.{:02}",
                (seed * 7) % 100,
                (seed * 13) % 100
            );
            let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
            faultkit::set_plan(Some(
                faultkit::FaultPlan::parse_with_seed(&plan, seed).unwrap(),
            ));
            let mut r = rngkit::rngs::StdRng::seed_from_u64(seed);
            for i in [0usize, 17, 59] {
                if let Ok(out) = retrieve(&mut r, &vdb, 6, 2, i, &RetryPolicy::default()) {
                    assert_eq!(
                        out.record,
                        vec![i as u8, (i * 13) as u8, 0xC4],
                        "seed {seed} index {i}"
                    );
                }
            }
            faultkit::set_plan(None);
        }
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan() {
        let run = || {
            let vdb = vdb(80);
            let mut r = rng();
            (0..vdb.len())
                .map(|i| retrieve(&mut r, &vdb, 4, 1, i, &RetryPolicy::default()).unwrap())
                .collect::<Vec<_>>()
        };
        let baseline = {
            let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
            faultkit::set_plan(None);
            run()
        };
        let gated = with_fault_plan(
            "pir.server_drop=9@0,pir.corrupt_word=9@0,par.worker_panic=9@0",
            run,
        );
        assert_eq!(baseline, gated);
    }

    #[test]
    fn verified_database_round_trips_and_rejects_tampering() {
        let vdb = vdb(10);
        assert_eq!(vdb.payload_size(), 3);
        assert_eq!(vdb.database().record_size(), 3, "tags are out-of-band");
        assert_eq!(vdb.tags().record_size(), TAG_BYTES);
        let payload = vdb.database().record(4).to_vec();
        let tag = vdb.tags().record(4).to_vec();
        assert!(vdb.verify(4, &payload, &tag));
        assert!(!vdb.verify(5, &payload, &tag), "index is part of the tag");
        let mut tampered = payload.clone();
        tampered[0] ^= 1;
        assert!(!vdb.verify(4, &tampered, &tag));
        let mut bad_tag = tag;
        bad_tag[3] ^= 0x10;
        assert!(!vdb.verify(4, &payload, &bad_tag));

        let plain = Database::new(vec![vec![7u8, 8], vec![9, 10]]);
        let re = VerifiedDatabase::from_database(&plain);
        assert_eq!(re.payload_size(), 2);
        assert!(re.verify(1, re.database().record(1), re.tags().record(1)));
    }
}
