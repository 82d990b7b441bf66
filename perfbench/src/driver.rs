//! The end-to-end driver: one in-process `tdf-serve` server and exactly
//! two closed-loop client connections over loopback, one thread each.
//!
//! This module uses only `Server`, `ServerConfig`, `Client` and
//! `Response` (with its `RefusalReason`), so a later change to a layer's
//! API cannot break the end-to-end metrics. Every response is checked on
//! the wire; a failed check counts in `failed`.

use crate::stats::Span;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tdf_serve::{Client, RefusalReason, Response, Server, ServerConfig};

/// Closed loop over this many connections: the protocol has no request
/// ids, so each caller waits for its reply before sending again.
pub const CONNECTIONS: usize = 2;

/// Answers each user gets before budget refusals: the default session
/// budget (20) over the default ε per query (0.5).
pub const ANSWERS_PER_USER: u64 = 40;

/// Simulated analysts in every QUERY stream.
pub const USERS: u64 = 1000;

/// Rows per APPEND in every write cycle.
pub const APPEND_ROWS: u32 = 256;

/// Owners in the server's disguise ledger (the `ServerConfig` default).
pub const LEDGER_OWNERS: u64 = 16;

/// Share of a slice that each read probe takes from a timed phase that
/// ends at a deadline. Probes run in every slice, so their samples
/// spread over the whole run like the timed phase's, and a passing burst
/// of host load lands in a few tail windows instead of all of them.
pub const PROBE_SHARE: f64 = 0.15;

/// Fewest server starts timed for `setup_s` in a run; the median is
/// reported.
pub const SETUP_RUNS: usize = 11;

/// QUERYs each connection sends in each slice of `analyst_zipf`'s timed
/// phase. Latency there depends on how far the users' budgets are spent,
/// so a round is a fixed number of requests rather than a fixed time: a
/// faster or slower host then replays the same trajectory, and a change
/// in speed cannot shift the mix of short and long histories the
/// percentiles are taken over.
pub const ZIPF_SLICE_QUERIES: u64 = 2000;

/// Slices at the start of each `analyst_zipf` round whose QUERYs are sent
/// and checked but not timed. They carry the sessions from fresh to the
/// workload's steady mix, in which the heavy users have spent their
/// budgets; over identical runs the median of the first half of a round
/// spread more than twice as wide as that of the second.
pub const ZIPF_WARMUP_SLICES: usize = 2;

/// Write cycles in each slice of the write probe. The probe's server is
/// fresh in every round, so its population grows by the same number of
/// rows in every round, whatever the host's speed.
pub const PROBE_SLICE_CYCLES: u64 = 128;

/// The four templates of the repository's analyst query mix.
pub const QUERY_MIX: [&str; 4] = [
    "SELECT COUNT(*) FROM t WHERE height >= 150",
    "SELECT AVG(weight) FROM t WHERE height >= 160",
    "SELECT AVG(blood_pressure) FROM t WHERE weight >= 60",
    "SELECT COUNT(*) FROM t WHERE weight >= 50",
];

/// PIR store shape of `pir_fetch`: 2^20 records of 32 bytes (32 MiB).
pub const PIR_FETCH_RECORDS: usize = 1 << 20;
pub const PIR_RECORD_BYTES: usize = 32;

/// Segment-cache budget of `ingest_churn` in bytes: 256 KiB, below the
/// initial sealed population (one 20 000-row segment of 481 KiB), so
/// every query reloads spilled segments from the start.
pub const INGEST_SEGCACHE_BYTES: usize = 256 << 10;

/// Rows of the initial `ingest_churn` population.
pub const INGEST_ROWS: usize = 20_000;

/// Background-compaction row floor of `ingest_churn`.
pub const INGEST_COMPACT_MIN: usize = 4096;

/// Re-fetched PIR records per connection in the correctness check.
const PIR_RECHECK_PER_CONN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnalystZipf,
    PirFetch,
    IngestChurn,
}

/// Client-visible op classes. `Ingest` is an APPEND+SEAL round trip and
/// `Unsubscribe` a DISGUISE+RESTORE round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Query,
    Pir,
    Ingest,
    Unsubscribe,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Pir => "pir",
            Op::Ingest => "ingest",
            Op::Unsubscribe => "unsubscribe",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AnalystZipf,
        Workload::PirFetch,
        Workload::IngestChurn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalystZipf => "analyst_zipf",
            Workload::PirFetch => "pir_fetch",
            Workload::IngestChurn => "ingest_churn",
        }
    }

    /// Op classes the timed phase sends; every other class is probed
    /// (see `read_probes` and `probes_writes`).
    pub fn timed_ops(self) -> &'static [Op] {
        match self {
            Workload::AnalystZipf => &[Op::Query],
            Workload::PirFetch => &[Op::Pir],
            Workload::IngestChurn => &[Op::Query, Op::Ingest, Op::Unsubscribe],
        }
    }

    /// Read probes (QUERY, PIR_FETCH) for the read classes the timed
    /// phase does not send. They run on the round's server over both
    /// connections and change no state another phase reads.
    fn read_probes(self) -> Vec<Traffic> {
        let pir = Traffic::Pir {
            records: self.server_config().pir_records as u64,
        };
        [(Op::Query, Traffic::Query), (Op::Pir, pir)]
            .into_iter()
            .filter(|(op, _)| !self.timed_ops().contains(op))
            .map(|(_, t)| t)
            .collect()
    }

    /// True when the write cycle is probed: it runs on a server of its
    /// own, because APPEND grows the population the timed QUERYs scan.
    fn probes_writes(self) -> bool {
        !self.timed_ops().contains(&Op::Ingest)
    }

    /// The op class whose latency the workload is about.
    pub fn primary_op(self) -> Op {
        self.timed_ops()[0]
    }

    /// Environment knobs the program reads, as this workload sets them.
    /// Every other `TDF_*` variable is left unset.
    pub fn env_knobs(self) -> Vec<(&'static str, String)> {
        let mut knobs = vec![("TDF_OBS", "0".to_owned())];
        if self == Workload::IngestChurn {
            knobs.push(("TDF_SEGCACHE", INGEST_SEGCACHE_BYTES.to_string()));
        }
        knobs
    }

    pub fn server_config(self) -> ServerConfig {
        let base = ServerConfig {
            compact_min: 0,
            ..ServerConfig::default()
        };
        match self {
            Workload::AnalystZipf => base,
            Workload::PirFetch => ServerConfig {
                pir_records: PIR_FETCH_RECORDS,
                pir_record_size: PIR_RECORD_BYTES,
                ..base
            },
            Workload::IngestChurn => ServerConfig {
                rows: INGEST_ROWS,
                compact_min: INGEST_COMPACT_MIN,
                ..base
            },
        }
    }
}

/// Deterministic generator for workload inputs (splitmix64).
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf sampler over user ids `1..=n` by inverse CDF.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, g: &mut Gen) -> u64 {
        let u = g.unit();
        (self.cdf.partition_point(|&c| c < u) as u64 + 1).min(self.cdf.len() as u64)
    }
}

/// One generated QUERY: the acting user and the SQL text.
#[derive(Debug, Clone)]
pub struct QueryInput {
    pub user: u64,
    pub sql: &'static str,
}

/// The QUERY input stream of `workload`'s connection `conn`; the layer
/// replay draws the same stream.
pub struct QueryStream {
    gen: Gen,
    zipf: Option<Zipf>,
}

impl QueryStream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> QueryStream {
        QueryStream {
            gen: Gen::new(seed, 0x51 + conn as u64),
            zipf: (workload == Workload::AnalystZipf).then(|| Zipf::new(USERS, 1.1)),
        }
    }

    pub fn next_input(&mut self) -> QueryInput {
        let user = match &self.zipf {
            Some(z) => z.sample(&mut self.gen),
            None => 1 + self.gen.below(USERS),
        };
        let sql = QUERY_MIX[self.gen.below(QUERY_MIX.len() as u64) as usize];
        QueryInput { user, sql }
    }
}

/// The PIR index stream of connection `conn`.
pub fn pir_stream(seed: u64, conn: usize) -> Gen {
    Gen::new(seed, 0x91 + conn as u64)
}

/// The ledger owners connection `conn` cycles over, in a seed-shuffled
/// order. A server has one writer at a time, so owners never collide.
pub fn owner_cycle(seed: u64, conn: usize) -> Vec<u64> {
    let mut owners: Vec<u64> = (1..=LEDGER_OWNERS).collect();
    let mut g = Gen::new(seed, 0xD1 + conn as u64);
    for i in (1..owners.len()).rev() {
        owners.swap(i, g.below(i as u64 + 1) as usize);
    }
    owners
}

/// Benchmark-side spans around client calls, kept in memory.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("no tracer user panics while holding the lock")
            .extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no tracer user panics while holding the lock"),
        )
    }
}

/// Latencies (ms) in completion order, and the wall time of the phases
/// that produced them.
#[derive(Debug, Default, Clone)]
pub struct OpSamples {
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
}

/// Per-user QUERY tally for the budget check.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    answered: u64,
    refused: u64,
}

/// The outcome of one socket run.
#[derive(Default)]
pub struct RunOutcome {
    pub setup_s: Vec<f64>,
    /// VmHWM at the end of the first round: one round's servers, from a
    /// fresh process. Later rounds start on whatever freed memory the
    /// allocator kept from the rounds before, which varies from round to
    /// round.
    pub peak_rss_mib: Option<f64>,
    /// Rounds (fresh servers) the timed phase was split into.
    pub rounds: usize,
    pub ops: HashMap<Op, OpSamples>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl RunOutcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }
}

/// One connection's state during a phase.
struct Conn<'t> {
    client: Client,
    tracer: Option<&'t Tracer>,
    spans: Vec<Span>,
    lat: HashMap<Op, Vec<(Instant, f64)>>,
    tallies: HashMap<u64, Tally>,
    pir_sample: Vec<(u64, Vec<u8>)>,
    pir_count: u64,
    appends: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
    broken: bool,
}

impl<'t> Conn<'t> {
    fn new(client: Client, tracer: Option<&'t Tracer>) -> Self {
        Conn {
            client,
            tracer,
            spans: Vec::new(),
            lat: HashMap::new(),
            tallies: HashMap::new(),
            pir_sample: Vec::new(),
            pir_count: 0,
            appends: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            broken: false,
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// One client call, timed and (when tracing) wrapped in a span. A
    /// transport error fails the call and retires the connection.
    fn call(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Client) -> io::Result<Response>,
    ) -> Option<Response> {
        self.attempted += 1;
        let start = Instant::now();
        let result = f(&mut self.client);
        let end = Instant::now();
        if let Some(t) = self.tracer {
            let id = t.id();
            self.spans.push(Span {
                id,
                parent,
                request: parent.unwrap_or(id),
                name,
                start_ns: t.ns(start),
                end_ns: t.ns(end),
            });
        }
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                self.fail(format!("{name}: transport error: {e}"));
                self.broken = true;
                None
            }
        }
    }

    fn record(&mut self, op: Op, started: Instant) {
        let now = Instant::now();
        let ms = now.duration_since(started).as_secs_f64() * 1e3;
        self.lat.entry(op).or_default().push((now, ms));
    }

    fn query(&mut self, q: &QueryInput) {
        let started = Instant::now();
        let Some(resp) = self.call("query", None, |c| c.query(q.user, q.sql)) else {
            return;
        };
        self.record(Op::Query, started);
        let tally = self.tallies.entry(q.user).or_default();
        tally.sent += 1;
        match resp {
            Response::Perturbed(v) if v.is_finite() => tally.answered += 1,
            Response::Refused {
                reason: RefusalReason::Budget,
                ..
            } => tally.refused += 1,
            other => self.fail(format!("QUERY user {}: unexpected {other:?}", q.user)),
        }
    }

    fn pir(&mut self, user: u64, index: u64) {
        let started = Instant::now();
        let Some(resp) = self.call("pir_fetch", None, |c| c.pir_fetch(user, index)) else {
            return;
        };
        self.record(Op::Pir, started);
        match resp {
            Response::Record(bytes) if bytes.len() == PIR_RECORD_BYTES => {
                self.pir_count += 1;
                if self.pir_count.is_multiple_of(16) && self.pir_sample.len() < PIR_RECHECK_PER_CONN
                {
                    self.pir_sample.push((index, bytes));
                }
            }
            other => self.fail(format!("PIR_FETCH {index}: unexpected {other:?}")),
        }
    }

    /// APPEND+SEAL, then DISGUISE+RESTORE of `owner`.
    fn write_cycle(&mut self, owner: u64) {
        let parent = self.tracer.map(Tracer::id);
        let t0 = Instant::now();
        let Some(appended) = self.call("append", parent, |c| c.append(owner, APPEND_ROWS)) else {
            return;
        };
        match appended {
            Response::Exact(v) if v >= 0.0 && v.fract() == 0.0 => self.appends.push(v as u64),
            other => self.fail(format!("APPEND: unexpected {other:?}")),
        }
        let Some(sealed) = self.call("seal", parent, |c| c.seal(owner)) else {
            return;
        };
        if !matches!(sealed, Response::Exact(v) if v >= 1.0) {
            self.fail(format!("SEAL: unexpected {sealed:?}"));
        }
        self.record(Op::Ingest, t0);
        self.close_parent(parent, "ingest", t0);

        let parent = self.tracer.map(Tracer::id);
        let t1 = Instant::now();
        let Some(disguised) = self.call("disguise", parent, |c| c.disguise(owner)) else {
            return;
        };
        let Some(restored) = self.call("restore", parent, |c| c.restore(owner)) else {
            return;
        };
        self.record(Op::Unsubscribe, t1);
        self.close_parent(parent, "unsubscribe", t1);
        match (&disguised, &restored) {
            (Response::Exact(d), Response::Exact(r)) if *d >= 1.0 && d == r => {}
            _ => self.fail(format!(
                "owner {owner}: DISGUISE {disguised:?} then RESTORE {restored:?}"
            )),
        }
    }

    fn close_parent(&mut self, parent: Option<u64>, name: &'static str, start: Instant) {
        if let (Some(t), Some(id)) = (self.tracer, parent) {
            let end = Instant::now();
            self.spans.push(Span {
                id,
                parent: None,
                request: id,
                name,
                start_ns: t.ns(start),
                end_ns: t.ns(end),
            });
        }
    }
}

/// What one connection sends in a phase.
#[derive(Clone, Copy)]
enum Traffic {
    Query,
    Pir { records: u64 },
    Write,
}

/// When one connection's traffic in a phase ends.
#[derive(Clone, Copy)]
enum Stop {
    /// At the phase's deadline.
    Deadline,
    /// After this many requests (write cycles for `Traffic::Write`).
    After(u64),
}

struct Plan {
    workload: Workload,
    seed: u64,
}

impl Plan {
    /// Runs one phase, in which connection `i` sends `traffic[i]` until
    /// its stop (`Stop::Deadline` meaning `seconds` from now), and, when
    /// `timed`, files its latencies under the phase's wall time.
    fn phase(
        &self,
        conns: &mut [Conn<'_>],
        traffic: &[Option<(Traffic, Stop)>],
        seconds: f64,
        salt: u64,
        timed: bool,
        out: &mut RunOutcome,
    ) {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            for (i, conn) in conns.iter_mut().enumerate() {
                let Some((traffic, stop)) = traffic[i] else { continue };
                let (workload, seed) = (self.workload, self.seed ^ salt);
                let more = move |conn: &Conn<'_>, sent: u64| {
                    !conn.broken
                        && match stop {
                            Stop::Deadline => Instant::now() < deadline,
                            Stop::After(n) => sent < n,
                        }
                };
                s.spawn(move || drive(conn, workload, seed, i, traffic, more));
            }
        });
        let elapsed_s = started.elapsed().as_secs_f64();
        if !timed {
            for conn in conns.iter_mut() {
                conn.lat.clear();
            }
            return;
        }
        let mut merged: HashMap<Op, Vec<(Instant, f64)>> = HashMap::new();
        for conn in conns.iter_mut() {
            for (op, lat) in conn.lat.drain() {
                merged.entry(op).or_default().extend(lat);
            }
        }
        for (op, mut lat) in merged {
            lat.sort_by_key(|(done, _)| *done);
            let samples = out.ops.entry(op).or_default();
            samples
                .latencies_ms
                .extend(lat.into_iter().map(|(_, ms)| ms));
            samples.elapsed_s += elapsed_s;
        }
    }
}

fn drive(
    conn: &mut Conn<'_>,
    workload: Workload,
    seed: u64,
    i: usize,
    traffic: Traffic,
    more: impl Fn(&Conn<'_>, u64) -> bool,
) {
    let mut sent = 0;
    match traffic {
        Traffic::Query => {
            let mut stream = QueryStream::new(workload, seed, i);
            while more(conn, sent) {
                conn.query(&stream.next_input());
                sent += 1;
            }
        }
        Traffic::Pir { records } => {
            let mut g = pir_stream(seed, i);
            while more(conn, sent) {
                let index = g.below(records);
                conn.pir(i as u64 + 1, index);
                sent += 1;
            }
        }
        Traffic::Write => {
            let owners = owner_cycle(seed, i);
            while more(conn, sent) {
                conn.write_cycle(owners[sent as usize % owners.len()]);
                sent += 1;
            }
        }
    }
}

/// Salts that keep probe-phase inputs apart from the timed phase's.
pub const PROBE_SALT: u64 = 0x9E0B_E000;

/// Times one `Server::start`.
fn start_timed(cfg: &ServerConfig, out: &mut RunOutcome) -> Option<Server> {
    let t = Instant::now();
    match Server::start(cfg.clone()) {
        Ok(server) => {
            out.setup_s.push(t.elapsed().as_secs_f64());
            Some(server)
        }
        Err(e) => {
            out.fail(format!("Server::start: {e}"));
            None
        }
    }
}

/// One end-to-end socket run of `workload` for `seconds`: rounds of the
/// timed phase sliced with probe phases for every op class the timed
/// phase does not send, and the wire-level correctness checks.
pub fn run(workload: Workload, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> RunOutcome {
    let timed = match workload {
        Workload::AnalystZipf => {
            [Some((Traffic::Query, Stop::After(ZIPF_SLICE_QUERIES))); CONNECTIONS]
        }
        Workload::PirFetch => {
            let pir = Traffic::Pir {
                records: PIR_FETCH_RECORDS as u64,
            };
            [Some((pir, Stop::Deadline)); CONNECTIONS]
        }
        Workload::IngestChurn => [
            Some((Traffic::Query, Stop::Deadline)),
            Some((Traffic::Write, Stop::Deadline)),
        ],
    };
    session(workload, seed, seconds, tracer, timed, true)
}

/// The reader-alone phase of `ingest_churn`: connection A's QUERY
/// stream on fresh servers with no writer.
pub fn reader_alone(seed: u64, seconds: f64) -> RunOutcome {
    session(
        Workload::IngestChurn,
        seed,
        seconds,
        None,
        [Some((Traffic::Query, Stop::Deadline)), None],
        false,
    )
}

/// The timed phase is split into rounds, each on a freshly started
/// server, so every round replays the same trajectory from the initial
/// state (budgets unspent, population at its initial size) and the
/// pooled samples stay stationary. A round whose timed phase ends at a
/// deadline lasts about `ROUND_SECONDS`; one that ends at a count lasts
/// as long as the host takes.
pub const ROUND_SECONDS: f64 = 4.0;

/// Each round alternates its timed phase with the probe phases in this
/// many slices (about one a second), so that a burst of host load
/// lasting a few seconds cannot cover a whole probe class.
pub const SLICES: usize = 4;

/// Input salt of slice `k` of the run (`round * SLICES + slice`); slice
/// 0 uses the seed as given.
pub fn slice_salt(k: usize) -> u64 {
    (k as u64).wrapping_mul(0x7F4A_7C15)
}

fn session(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    timed: [Option<(Traffic, Stop)>; CONNECTIONS],
    probes: bool,
) -> RunOutcome {
    let mut out = RunOutcome::default();
    let cfg = workload.server_config();
    let plan = Plan { workload, seed };
    let read_probes = if probes {
        workload.read_probes()
    } else {
        Vec::new()
    };
    let probe_writes = probes && workload.probes_writes();
    let slice_s = ROUND_SECONDS / SLICES as f64;
    let probe_s = slice_s * PROBE_SHARE;
    let timed_s = slice_s - probe_s * read_probes.len() as f64;
    let warmup = if workload == Workload::AnalystZipf {
        ZIPF_WARMUP_SLICES
    } else {
        0
    };
    let started = Instant::now();
    let mut round = 0;
    loop {
        // Rounds take as long as their work needs on this host; one more
        // runs while it would end nearer `seconds` than stopping now.
        if round > 0 {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed + 0.5 * elapsed / round as f64 >= seconds {
                break;
            }
        }
        let Some(mut served) = Served::open(&cfg, CONNECTIONS, tracer, &mut out) else {
            break;
        };
        // The write probe runs on a server of its own, over one
        // connection as `ingest_churn` writes: no write queues behind
        // another writer's fsync, and no timed QUERY scans the rows it
        // appends.
        let mut writes = None;
        if probe_writes {
            writes = Served::open(&cfg, 1, tracer, &mut out);
            if writes.is_none() {
                served.close(cfg.rows as u64, tracer, &mut out);
                break;
            }
        }
        for slice in 0..SLICES {
            let salt = slice_salt(round * SLICES + slice);
            let timed_slice = slice >= warmup;
            plan.phase(&mut served.conns, &timed, timed_s, salt, timed_slice, &mut out);
            for &traffic in &read_probes {
                let both = [Some((traffic, Stop::Deadline)); CONNECTIONS];
                plan.phase(
                    &mut served.conns,
                    &both,
                    probe_s,
                    PROBE_SALT ^ salt,
                    true,
                    &mut out,
                );
            }
            if let Some(w) = writes.as_mut() {
                let write = [Some((Traffic::Write, Stop::After(PROBE_SLICE_CYCLES)))];
                plan.phase(&mut w.conns, &write, 0.0, PROBE_SALT ^ salt, true, &mut out);
            }
        }
        served.close(cfg.rows as u64, tracer, &mut out);
        if let Some(w) = writes {
            w.close(cfg.rows as u64, tracer, &mut out);
        }
        if round == 0 {
            out.peak_rss_mib = peak_rss_mib();
        }
        round += 1;
    }
    out.rounds = round;
    while out.setup_s.len() < SETUP_RUNS {
        match start_timed(&cfg, &mut out) {
            Some(server) => server.shutdown(),
            None => break,
        }
    }
    out
}

/// A running server and its connected clients.
struct Served<'t> {
    server: Server,
    conns: Vec<Conn<'t>>,
}

impl<'t> Served<'t> {
    /// Starts a server (timed for `setup_s`) and connects `n` clients.
    fn open(
        cfg: &ServerConfig,
        n: usize,
        tracer: Option<&'t Tracer>,
        out: &mut RunOutcome,
    ) -> Option<Self> {
        let server = start_timed(cfg, out)?;
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            match Client::connect(server.addr()) {
                Ok(c) => conns.push(Conn::new(c, tracer)),
                Err(e) => {
                    out.fail(format!("connect: {e}"));
                    server.shutdown();
                    return None;
                }
            }
        }
        Some(Served { server, conns })
    }

    /// Checks the server's responses, ends every session with BYE, shuts
    /// the server down, and files the clients' counts, failures and spans.
    fn close(mut self, initial_rows: u64, tracer: Option<&Tracer>, out: &mut RunOutcome) {
        check(&mut self.conns, initial_rows, out);
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if !conn.broken && !matches!(conn.client.bye(i as u64), Ok(Response::Bye)) {
                conn.fail("BYE was not acknowledged".to_owned());
            }
        }
        self.server.shutdown();
        for conn in self.conns {
            out.attempted += conn.attempted;
            for f in conn.failures {
                out.fail(f);
            }
            if let Some(t) = tracer {
                t.extend(conn.spans);
            }
        }
    }
}

/// The checks that need the whole run: exact budget accounting per
/// user, APPEND receipts, and a one-at-a-time PIR re-fetch.
fn check(conns: &mut [Conn<'_>], initial_rows: u64, out: &mut RunOutcome) {
    let mut tallies: HashMap<u64, Tally> = HashMap::new();
    let mut appends = Vec::new();
    let mut pir_sample = Vec::new();
    for conn in conns.iter_mut() {
        for (user, t) in conn.tallies.drain() {
            let m = tallies.entry(user).or_default();
            m.sent += t.sent;
            m.answered += t.answered;
            m.refused += t.refused;
        }
        appends.append(&mut conn.appends);
        pir_sample.append(&mut conn.pir_sample);
    }
    let mut users: Vec<_> = tallies.into_iter().collect();
    users.sort_unstable_by_key(|(u, _)| *u);
    for (user, t) in users {
        let want = t.sent.min(ANSWERS_PER_USER);
        if t.answered != want || t.answered + t.refused != t.sent {
            out.fail(format!(
                "user {user}: sent {} answered {} refused {}, want {want} answered",
                t.sent, t.answered, t.refused
            ));
        }
    }
    appends.sort_unstable();
    for (k, got) in appends.iter().enumerate() {
        let want = initial_rows + u64::from(APPEND_ROWS) * (k as u64 + 1);
        if *got != want {
            out.fail(format!("APPEND receipt {k}: got {got}, want {want}"));
            break;
        }
    }
    let conn = &mut conns[0];
    for (index, coalesced) in pir_sample {
        if conn.broken {
            break;
        }
        match conn.call("pir_recheck", None, |c| c.pir_fetch(0, index)) {
            Some(Response::Record(alone)) if alone == coalesced => {}
            Some(other) => conn.fail(format!(
                "PIR record {index}: re-fetched alone as {other:?}, coalesced {coalesced:?}"
            )),
            None => {}
        }
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
