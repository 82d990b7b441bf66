//! The traced run: per-layer numbers for one workload and seed.
//!
//! 1. Two socket runs of half the seconds each, one untraced and one with
//!    `TDF_OBS=2` and benchmark-side spans around every client call; the
//!    program's `obs` snapshot is taken at the end of the traced one.
//! 2. A layer replay: the same generated inputs fed straight into each
//!    layer's public entry points, with a span around every call.
//! 3. For `ingest_churn`, a reader-alone socket run (no writer).
//!
//! Spans stay in memory and are written to `PERFBENCH_OUT` at the end.
//! This binary is the only benchmark target that calls layer APIs.

use obs::Snapshot;
use perfbench::driver::{
    self, owner_cycle, pir_stream, Op, QueryInput, QueryStream, RunOutcome, Tracer, Workload,
    APPEND_ROWS, LEDGER_OWNERS, PROBE_SALT, ZIPF_SLICE_QUERIES, ZIPF_WARMUP_SLICES,
};
use perfbench::report::{host_stamp, json_str, metric_table, result_line, Metric};
use perfbench::stats::{median, percentile, self_times, unattributed_pct, Span};
use perfbench::{parse_args, set_knobs, write_artifact};
use rngkit::SeedableRng;
use std::collections::HashMap;
use std::io::{Cursor, Write as _};
use std::time::Instant;
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_microdata::SegmentedDataset;
use tdf_pir::store::Database;
use tdf_querydb::engine::{evaluate_segmented_with_limits, QueryLimits};
use tdf_querydb::parser::parse;
use tdf_serve::protocol::{encode_request, encode_response, read_request, Request};
use tdf_serve::{PirBatcher, Response, UserSession};

/// Replayed QUERYs needed for a p99 with ten samples beyond it.
const MIN_REPLAY_QUERIES: usize = 1000;
/// Cap on replayed QUERYs, to bound the traced run's length.
const MAX_REPLAY_QUERIES: usize = 20_000;
/// Replayed write cycles when the timed phase sends none.
const PROBE_WRITE_CYCLES: usize = 200;
/// Replayed disguise+restore pairs (1000 transactions).
const UNSUBSCRIBE_PAIRS: usize = 500;
/// Bare `sync_all` calls timed for the fsync floor.
const FSYNC_SAMPLES: usize = 200;

/// Span recorder for the replay, sharing the socket run's epoch.
struct Rec<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Rec<'_> {
    fn parent(&self) -> u64 {
        self.tracer.id()
    }

    /// Runs `f` under a span; returns its result and duration in ns.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let id = self.tracer.id();
        self.spans.push(Span {
            id,
            parent,
            request: parent.unwrap_or(id),
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        (out, end.duration_since(start).as_secs_f64() * 1e9)
    }

    fn close(&mut self, id: u64, name: &'static str, start: Instant) {
        self.spans.push(Span {
            id,
            parent: None,
            request: id,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(Instant::now()),
        });
    }
}

/// Per-layer sample sets, in nanoseconds unless named otherwise.
#[derive(Default)]
struct Samples {
    decode: HashMap<Op, Vec<f64>>,
    encode: HashMap<Op, Vec<f64>>,
    parse: Vec<f64>,
    evaluate: Vec<f64>,
    session_self: Vec<f64>,
    query_service: Vec<f64>,
    history_scanned: Vec<f64>,
    refused: usize,
    pin: Vec<f64>,
    append: Vec<f64>,
    seal: Vec<f64>,
    compact: Vec<f64>,
    sweep: Vec<f64>,
    fetch: Vec<f64>,
    pir_service: Vec<f64>,
    txn: Vec<f64>,
    fsync: Vec<f64>,
    par: Option<Snapshot>,
    sweeps: usize,
}

/// Decodes `frame` as the server would.
fn decode(frame: &[u8]) -> Request {
    read_request(&mut Cursor::new(frame)).expect("the benchmark's own frames decode")
}

fn patient_rows(rows: usize, seed: u64) -> SegmentedDataset {
    let initial = patients(&PatientConfig {
        n: rows,
        seed,
        ..Default::default()
    });
    SegmentedDataset::from_dataset(&initial, rows.max(1))
}

/// One APPEND of `APPEND_ROWS` single-row `patients` draws, then SEAL.
fn write_cycle(
    rec: &mut Rec<'_>,
    s: &mut Samples,
    data: &mut SegmentedDataset,
    k: u64,
    compact_min: usize,
) {
    let parent = rec.parent();
    let start = Instant::now();
    let (_, ns) = rec.time("segment.push_row", Some(parent), || {
        let base = data.num_rows() as u64;
        for i in 0..u64::from(APPEND_ROWS) {
            let row = patients(&PatientConfig {
                n: 1,
                seed: (base + i) ^ k.rotate_left(32),
                ..Default::default()
            })
            .row(0);
            data.push_row(row)
                .expect("patients rows fit the patients schema");
        }
    });
    s.append.push(ns);
    let (_, ns) = rec.time("segment.seal", Some(parent), || data.seal());
    s.seal.push(ns);
    if compact_min > 0 {
        let (report, ns) = rec.time("segment.compact", Some(parent), || {
            data.compact(compact_min)
        });
        if report.map(|r| r.merged_any()).unwrap_or(false) {
            s.compact.push(ns);
        }
    }
    rec.close(parent, "replay.ingest", start);
}

/// The QUERY streams a workload's socket run sent, slice by slice, each
/// with the round it belongs to (the server, and so the dataset and
/// sessions, is fresh in every round), its query count, and whether the
/// run timed it: the timed streams for workloads that time QUERY, the
/// probe streams otherwise. Stops once enough timed queries for a p99
/// are queued, at a round boundary.
fn query_slices(
    w: Workload,
    seed: u64,
    plain: &RunOutcome,
) -> Vec<(usize, Vec<QueryStream>, usize, bool)> {
    let sent = plain
        .ops
        .get(&Op::Query)
        .map_or(0, |o| o.latencies_ms.len());
    let slices = plain.rounds.max(1) * driver::SLICES;
    let (salt, conns, per_slice, warmup) = match w {
        Workload::AnalystZipf => (
            0,
            driver::CONNECTIONS,
            ZIPF_SLICE_QUERIES as usize * driver::CONNECTIONS,
            ZIPF_WARMUP_SLICES,
        ),
        Workload::IngestChurn => (0, 1, sent / slices, 0),
        Workload::PirFetch => (PROBE_SALT, driver::CONNECTIONS, sent / slices, 0),
    };
    let per_slice = per_slice.clamp(1, MAX_REPLAY_QUERIES);
    let mut out = Vec::new();
    let mut total = 0;
    for k in 0..slices {
        let round = k / driver::SLICES;
        if k % driver::SLICES == 0 && total >= MIN_REPLAY_QUERIES.min(sent) {
            break;
        }
        let streams = (0..conns)
            .map(|c| QueryStream::new(w, seed ^ salt ^ driver::slice_salt(k), c))
            .collect();
        let timed = k % driver::SLICES >= warmup;
        out.push((round, streams, per_slice, timed));
        if timed {
            total += per_slice;
        }
        if total >= MAX_REPLAY_QUERIES {
            break;
        }
    }
    out
}

fn replay_queries(w: Workload, seed: u64, plain: &RunOutcome, rec: &mut Rec<'_>, s: &mut Samples) {
    let cfg = w.server_config();
    let mut session_cfg = cfg.session.clone();
    session_cfg.seed = cfg.seed;
    let writes_per_query = if w == Workload::IngestChurn {
        let q = plain
            .ops
            .get(&Op::Query)
            .map_or(0, |o| o.latencies_ms.len());
        let c = plain
            .ops
            .get(&Op::Ingest)
            .map_or(0, |o| o.latencies_ms.len());
        c as f64 / q.max(1) as f64
    } else {
        0.0
    };
    let mut cycle = 0u64;
    let mut current_round = usize::MAX;
    let mut data = patient_rows(cfg.rows, cfg.seed);
    let mut sessions: HashMap<u64, (UserSession, u64)> = HashMap::new();
    let mut writes = 0usize;
    let mut replayed = 0usize;
    let mut untimed = Samples::default();
    for (round, mut streams, n, timed) in query_slices(w, seed, plain) {
        let s: &mut Samples = if timed { &mut *s } else { &mut untimed };
        if round != current_round {
            current_round = round;
            data = patient_rows(cfg.rows, cfg.seed);
            sessions.clear();
            writes = 0;
            replayed = 0;
        }
        for i in 0..n {
            let k = streams.len();
            let QueryInput { user, sql } = streams[i % k].next_input();
            let parent = rec.parent();
            let start = Instant::now();
            let bytes = encode_request(&Request::Query {
                user,
                sql: sql.to_owned(),
            });
            let (_, dec) = rec.time("protocol.decode", Some(parent), || decode(&bytes));
            let (query, p) = rec.time("querydb.parse", Some(parent), || parse(sql));
            let query = query.expect("the query mix parses");
            let (_, e) = rec.time("querydb.evaluate", Some(parent), || {
                evaluate_segmented_with_limits(&data, &query, &QueryLimits::unlimited())
            });
            let (session, answered) = sessions
                .entry(user)
                .or_insert_with(|| (UserSession::new(&session_cfg, user), 0));
            s.history_scanned.push(*answered as f64);
            let (resp, a) = rec.time("session.answer_segmented", Some(parent), || {
                session.answer_segmented(&data, sql)
            });
            if resp.is_refused() {
                s.refused += 1;
            } else {
                *answered += 1;
            }
            let (_, enc) = rec.time("protocol.encode", Some(parent), || encode_response(&resp));
            rec.close(parent, "replay.query", start);
            s.decode.entry(Op::Query).or_default().push(dec);
            s.encode.entry(Op::Query).or_default().push(enc);
            s.parse.push(p);
            s.evaluate.push(e);
            s.session_self.push(a - p - e);
            s.query_service.push(dec + a + enc);
            if i % 10 == 0 {
                for idx in 0..data.num_segments() {
                    let (_, ns) = rec.time("segment.pin", None, || data.pin(idx));
                    s.pin.push(ns);
                }
            }
            replayed += 1;
            while (writes as f64) < replayed as f64 * writes_per_query {
                write_cycle(rec, s, &mut data, cycle, cfg.compact_min);
                writes += 1;
                cycle += 1;
            }
        }
    }
}

fn replay_ingest(w: Workload, rec: &mut Rec<'_>, s: &mut Samples) {
    let cfg = w.server_config();
    for op in [Op::Ingest, Op::Unsubscribe] {
        let reqs: Vec<Request> = match op {
            Op::Ingest => vec![
                Request::Append {
                    user: 1,
                    count: APPEND_ROWS,
                },
                Request::Seal { user: 1 },
            ],
            _ => vec![Request::Disguise { user: 1 }, Request::Restore { user: 1 }],
        };
        for _ in 0..200 {
            for r in &reqs {
                let bytes = encode_request(r);
                let (_, ns) = rec.time("protocol.decode", None, || decode(&bytes));
                s.decode.entry(op).or_default().push(ns);
                let (_, ns) = rec.time("protocol.encode", None, || {
                    encode_response(&Response::Exact(1250.0))
                });
                s.encode.entry(op).or_default().push(ns);
            }
        }
    }
    if s.append.is_empty() {
        let mut data = patient_rows(cfg.rows, cfg.seed);
        for k in 0..PROBE_WRITE_CYCLES as u64 {
            write_cycle(rec, s, &mut data, k, cfg.compact_min);
        }
    }
}

fn replay_pir(w: Workload, seed: u64, lanes: usize, rec: &mut Rec<'_>, s: &mut Samples) {
    let cfg = w.server_config();
    let db = Database::from_fn(cfg.pir_records, cfg.pir_record_size, |i, r| {
        for (j, b) in r.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
        }
    });
    let salt = if w == Workload::PirFetch {
        0
    } else {
        PROBE_SALT
    };
    let mut g = pir_stream(seed ^ salt, 0);
    let big = cfg.pir_records >= 1 << 16;
    let sweeps = if big { 60 } else { 400 };
    let mut rng = rngkit::rngs::StdRng::seed_from_u64(seed);
    obs::reset();
    obs::set_level(1);
    for _ in 0..sweeps {
        let idx: Vec<usize> = (0..lanes)
            .map(|_| g.below(db.len() as u64) as usize)
            .collect();
        let (_, ns) = rec.time("pir.retrieve_batch", None, || {
            tdf_pir::batch::retrieve_batch(&mut rng, &db, &idx)
        });
        s.sweep.push(ns);
    }
    s.par = Some(obs::snapshot());
    s.sweeps = sweeps;
    obs::set_level(0);
    // Two closed-loop callers through the batcher, as the two
    // connections of the socket run.
    let batcher = PirBatcher::new(cfg.seed, cfg.pir_batch_window_ms, cfg.pir_batch_max);
    let fetches = if big { 120 } else { 300 };
    let tracer = rec.tracer;
    let results: Vec<(Samples, Vec<Span>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..driver::CONNECTIONS)
            .map(|c| {
                let (db, batcher) = (&db, &batcher);
                sc.spawn(move || {
                    let mut r = Rec {
                        tracer,
                        spans: Vec::new(),
                    };
                    let mut t = Samples::default();
                    let mut g = pir_stream(seed ^ salt, c);
                    for _ in 0..fetches {
                        let index = g.below(db.len() as u64);
                        let parent = r.parent();
                        let start = Instant::now();
                        let bytes = encode_request(&Request::PirFetch { user: 1, index });
                        let (_, d) = r.time("protocol.decode", Some(parent), || decode(&bytes));
                        let (record, f) = r.time("batch.fetch", Some(parent), || {
                            batcher.fetch(db, index as usize)
                        });
                        let resp = Response::Record(record);
                        let (_, e) =
                            r.time("protocol.encode", Some(parent), || encode_response(&resp));
                        r.close(parent, "replay.pir", start);
                        t.decode.entry(Op::Pir).or_default().push(d);
                        t.encode.entry(Op::Pir).or_default().push(e);
                        t.fetch.push(f);
                        t.pir_service.push(d + f + e);
                    }
                    (t, r.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread does not panic"))
            .collect()
    });
    for (mut t, spans) in results {
        for (op, v) in t.decode.drain() {
            s.decode.entry(op).or_default().extend(v);
        }
        for (op, v) in t.encode.drain() {
            s.encode.entry(op).or_default().extend(v);
        }
        s.fetch.extend(t.fetch);
        s.pir_service.extend(t.pir_service);
        rec.spans.extend(spans);
    }
}

fn replay_disguise(w: Workload, seed: u64, rec: &mut Rec<'_>, s: &mut Samples) {
    let cfg = w.server_config();
    let dir = std::env::temp_dir();
    let wal = dir.join(format!("perfbench-replay-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let ledger = tdf_disguise::owned_patients(
        &PatientConfig {
            n: cfg.rows,
            seed: cfg.seed,
            ..Default::default()
        },
        LEDGER_OWNERS,
    );
    let (mut engine, _) = tdf_disguise::DisguiseEngine::open(
        &wal,
        ledger,
        tdf_disguise::DisguisePolicy::patients_default(),
        cfg.seed,
    )
    .expect("a fresh journal opens");
    let owners = owner_cycle(seed, 0);
    for k in 0..UNSUBSCRIBE_PAIRS {
        let u = owners[k % owners.len()];
        let parent = rec.parent();
        let start = Instant::now();
        let (d, ns) = rec.time("disguise.disguise", Some(parent), || engine.disguise(u));
        s.txn.push(ns);
        let (r, ns) = rec.time("disguise.restore", Some(parent), || engine.restore(u));
        s.txn.push(ns);
        rec.close(parent, "replay.unsubscribe", start);
        assert_eq!(
            d.expect("disguise commits").rows,
            r.expect("restore commits").rows,
            "restore returns what disguise took"
        );
    }
    drop(engine);
    let _ = std::fs::remove_file(&wal);
    let path = dir.join(format!("perfbench-fsync-{}.bin", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    let block = [0x5Au8; 4096];
    for _ in 0..FSYNC_SAMPLES {
        f.write_all(&block).expect("temp write");
        let (res, ns) = rec.time("disk.sync_all", None, || f.sync_all());
        res.expect("sync_all");
        s.fsync.push(ns);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Pooled nearest-rank p99 of a replay sample set, and its size.
fn p99(v: &[f64]) -> (f64, usize) {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 0.99).unwrap_or(0.0), v.len())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layers: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    set_knobs(w);
    std::env::set_var("TDF_OBS", "2");
    println!("host: {}", host_stamp(w, args.seed, true));
    obs::set_level(0);
    let half = args.seconds / 2.0;

    // 1. Untraced and traced socket runs.
    let plain = driver::run(w, args.seed, half, None);
    let tracer = Tracer::default();
    obs::reset();
    obs::set_level(2);
    let traced = driver::run(w, args.seed, half, Some(&tracer));
    let snap = obs::snapshot();
    obs::set_level(0);
    let mut spans = tracer.take();

    // 2. Layer replay.
    let mut rec = Rec {
        tracer: &tracer,
        spans: Vec::new(),
    };
    let mut s = Samples::default();
    replay_queries(w, args.seed, &plain, &mut rec, &mut s);
    replay_ingest(w, &mut rec, &mut s);
    let lanes = ratio(
        snap.counter("serve.pir.requests"),
        snap.counter("serve.pir.batches"),
    );
    replay_pir(
        w,
        args.seed,
        (lanes.round() as usize).max(1),
        &mut rec,
        &mut s,
    );
    replay_disguise(w, args.seed, &mut rec, &mut s);
    spans.extend(rec.spans);

    // 3. Reader alone.
    let alone = (w == Workload::IngestChurn).then(|| driver::reader_alone(args.seed, half));

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for o in [Some(&plain), Some(&traced), alone.as_ref()]
        .into_iter()
        .flatten()
    {
        attempted += o.attempted;
        failures.extend(o.failures.iter().cloned());
    }
    let failed = plain.failed + traced.failed + alone.as_ref().map_or(0, |a| a.failed);

    let rt_ms = |o: &RunOutcome, op: Op| o.ops.get(&op).map_or(vec![], |x| x.latencies_ms.clone());
    let to_us = |v: &[f64]| v.iter().map(|x| x / 1e3).collect::<Vec<f64>>();
    let to_ms = |v: &[f64]| v.iter().map(|x| x / 1e6).collect::<Vec<f64>>();
    let primary = w.primary_op();
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, n: Option<usize>| {
        m.push(Metric::new(name, value, unit, n));
    };

    let dec = s.decode.get(&primary).cloned().unwrap_or_default();
    let enc = s.encode.get(&primary).cloned().unwrap_or_default();
    push(
        "protocol.decode_us",
        med(&to_us(&dec)),
        "us",
        Some(dec.len()),
    );
    push(
        "protocol.encode_us",
        med(&to_us(&enc)),
        "us",
        Some(enc.len()),
    );

    let plain_primary = rt_ms(&plain, primary);
    let service = if primary == Op::Pir {
        &s.pir_service
    } else {
        &s.query_service
    };
    push(
        "server.self_us",
        med(&plain_primary) * 1e3 - med(&to_us(service)),
        "us",
        Some(plain_primary.len()),
    );
    let interference = alone.as_ref().map_or(0.0, |a| {
        med(&rt_ms(&plain, Op::Query)) - med(&rt_ms(a, Op::Query))
    });
    push("server.write_interference_ms", interference, "ms", None);

    let ss = to_us(&s.session_self);
    let (ss99, ssn) = p99(&ss);
    push("session.self_us_p50", med(&ss), "us", Some(ssn));
    push("session.self_us_p99", ss99, "us", Some(ssn));
    push(
        "session.history_scanned",
        s.history_scanned.iter().sum::<f64>() / s.history_scanned.len().max(1) as f64,
        "count",
        Some(s.history_scanned.len()),
    );
    push(
        "session.wasted_eval_ratio",
        s.refused as f64 / s.history_scanned.len().max(1) as f64,
        "ratio",
        Some(s.history_scanned.len()),
    );

    push(
        "querydb.parse_us",
        med(&to_us(&s.parse)),
        "us",
        Some(s.parse.len()),
    );
    let ev = to_ms(&s.evaluate);
    let (ev99, evn) = p99(&ev);
    push("querydb.evaluate_ms_p50", med(&ev), "ms", Some(evn));
    push("querydb.evaluate_ms_p99", ev99, "ms", Some(evn));
    push(
        "querydb.rows_scanned_per_query",
        ratio(
            snap.counter("querydb.rows_scanned"),
            snap.counter("querydb.queries"),
        ),
        "count",
        None,
    );

    let hits = snap.counter("segment.cache_hit");
    let reloads = snap.counter("segment.reload");
    push(
        "segment.pin_us",
        med(&to_us(&s.pin)),
        "us",
        Some(s.pin.len()),
    );
    push(
        "segment.hit_ratio",
        ratio(hits, hits + reloads),
        "ratio",
        None,
    );
    push("segment.reloads", reloads as f64, "count", None);
    push(
        "segment.spills",
        snap.counter("segment.spill") as f64,
        "count",
        None,
    );
    push(
        "segment.parts_per_query",
        ratio(hits + reloads, snap.counter("querydb.queries")),
        "count",
        None,
    );
    push(
        "segment.seal_us",
        med(&to_us(&s.seal)),
        "us",
        Some(s.seal.len()),
    );
    push(
        "segment.compact_ms",
        med(&to_ms(&s.compact)),
        "ms",
        Some(s.compact.len()),
    );
    push(
        "segment.compactions",
        snap.counter("segment.compactions") as f64,
        "count",
        None,
    );
    push(
        "segment.compact_merged",
        snap.counter("segment.compact_merged") as f64,
        "count",
        None,
    );

    push("batch.lanes_mean", lanes, "count", None);
    let sweep_ms = to_ms(&s.sweep);
    push(
        "batch.wait_us",
        (med(&s.fetch) - med(&s.sweep)) / 1e3,
        "us",
        Some(s.fetch.len()),
    );
    push("pir.sweep_ms", med(&sweep_ms), "ms", Some(sweep_ms.len()));
    push(
        "pir.words_scanned_per_fetch",
        ratio(
            snap.counter("pir.words_scanned"),
            snap.counter("serve.pir.requests"),
        ),
        "count",
        None,
    );
    let par = s.par.clone().unwrap_or_default();
    let per_sweep = |name: &str| ratio(par.counter(name), s.sweeps as u64);
    push(
        "par.tasks_dispatched_per_sweep",
        per_sweep("par.tasks_dispatched"),
        "count",
        None,
    );
    push(
        "par.sequential_fallback_per_sweep",
        per_sweep("par.sequential_fallback"),
        "count",
        None,
    );
    push(
        "par.steals_per_sweep",
        per_sweep("par.pool.steals"),
        "count",
        None,
    );

    let txn = to_ms(&s.txn);
    let (txn99, txnn) = p99(&txn);
    push("disguise.txn_ms_p50", med(&txn), "ms", Some(txnn));
    push("disguise.txn_ms_p99", txn99, "ms", Some(txnn));
    // `disguise.txns` counts disguises only; restores journal a frame too.
    let disguises = snap.counter("disguise.txns");
    push(
        "disguise.wal_bytes_per_txn",
        ratio(
            snap.counter("disguise.wal_bytes"),
            disguises + snap.counter("disguise.restores"),
        ),
        "B",
        None,
    );
    push(
        "disguise.rows_per_txn",
        ratio(snap.counter("disguise.rows"), disguises),
        "count",
        None,
    );
    push(
        "disk.fsync_ms",
        med(&to_ms(&s.fsync)),
        "ms",
        Some(s.fsync.len()),
    );

    let traced_primary = rt_ms(&traced, primary);
    push(
        "trace.overhead_pct",
        100.0 * (med(&traced_primary) / med(&plain_primary) - 1.0),
        "%",
        Some(traced_primary.len()),
    );
    let d = |op: Op| s.decode.get(&op).map_or(vec![], |v| to_ms(v));
    let e = |op: Op| s.encode.get(&op).map_or(vec![], |v| to_ms(v));
    let layers: [(Op, Vec<Vec<f64>>); 4] = [
        (
            Op::Query,
            vec![
                d(Op::Query),
                to_ms(&s.session_self),
                to_ms(&s.parse),
                to_ms(&s.evaluate),
                e(Op::Query),
            ],
        ),
        (Op::Pir, vec![d(Op::Pir), to_ms(&s.fetch), e(Op::Pir)]),
        (
            Op::Ingest,
            vec![
                d(Op::Ingest),
                to_ms(&s.append),
                to_ms(&s.seal),
                e(Op::Ingest),
                d(Op::Ingest),
                e(Op::Ingest),
            ],
        ),
        (
            Op::Unsubscribe,
            vec![
                d(Op::Unsubscribe),
                txn.clone(),
                txn.clone(),
                e(Op::Unsubscribe),
                d(Op::Unsubscribe),
                e(Op::Unsubscribe),
            ],
        ),
    ];
    for (op, parts) in &layers {
        let rt = rt_ms(&plain, *op);
        let refs: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
        let pct = unattributed_pct(&rt, &refs).unwrap_or(0.0);
        push(
            &format!("trace.unattributed_pct.{}", op.name()),
            pct,
            "%",
            Some(rt.len()),
        );
    }

    // Spans: written out now that the run is over; self times go to the log.
    let mut jsonl = String::new();
    spans.sort_by_key(|s| s.start_ns);
    for sp in &spans {
        jsonl.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            sp.id,
            sp.parent.map_or("null".to_owned(), |p| p.to_string()),
            sp.request,
            json_str(sp.name),
            sp.start_ns,
            sp.end_ns
        ));
    }
    let spans_name = format!("spans-{}-{}.jsonl", w.name(), args.seed);
    match write_artifact(&spans_name, &jsonl) {
        Ok(Some(p)) => println!("spans: {} written to {}", spans.len(), p.display()),
        Ok(None) => println!(
            "spans: {} recorded (PERFBENCH_OUT unset, not written)",
            spans.len()
        ),
        Err(e) => eprintln!("layers: could not write {spans_name}: {e}"),
    }
    for (name, selfs) in self_times(&spans) {
        println!(
            "  self time {name:<20} median {:.2} us (n={})",
            med(&selfs) / 1e3,
            selfs.len()
        );
    }
    for f in &failures {
        eprintln!("FAILED CHECK: {f}");
    }
    println!(
        "{} seed={} attempted={attempted} failed={failed}",
        w.name(),
        args.seed
    );
    print!("{}", metric_table(&m));
    let line = result_line(failed == 0, attempted.max(1), failed, &m);
    let name = format!("layers-{}-{}.json", w.name(), args.seed);
    let artifact = format!(
        "{{\"host\": {}, \"result\": {line}}}\n",
        host_stamp(w, args.seed, true)
    );
    if let Err(e) = write_artifact(&name, &artifact) {
        eprintln!("layers: could not write {name}: {e}");
    }
    println!("{line}");
    if failed > 0 {
        std::process::exit(1);
    }
}
