//! Server tests that read or install process-global state: the obs
//! registry and the fault plan. They run as phases of one `#[test]`, so
//! no sibling test in this process can reset the registry, bump its
//! counters or take an injected fault meant for another phase.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use tdf_serve::{Client, RefusalReason, Response, Server, ServerConfig, SessionConfig};

const SQL: &str = "SELECT COUNT(*) FROM t WHERE height >= 150";

fn config(rows: usize, budget: f64) -> ServerConfig {
    ServerConfig {
        rows,
        seed: 0xBEEF,
        workers: 2,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget,
            seed: 0xBEEF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        // No compactor whatever `TDF_COMPACT_MIN` says, so the counters
        // the accounting phase pins are exact.
        compact_min: 0,
        ..ServerConfig::default()
    }
}

#[test]
fn observed_phases_run_alone_in_this_process() {
    let before = obs::level();
    obs::set_level(1);
    concurrent_pir_fetches_coalesce_into_fused_sweeps();
    slow_clients_are_evicted_at_the_read_deadline();
    every_opcode_and_outcome_is_counted_exactly();
    injected_partial_response_is_a_client_error_never_a_partial_answer();
    dropped_batch_still_answers_every_fetch_correctly();
    obs::set_level(before);
}

fn concurrent_pir_fetches_coalesce_into_fused_sweeps() {
    obs::reset();
    let server = Server::start(ServerConfig {
        workers: 16,
        // A wide admission window so simultaneous fetches land in one
        // leader's batch even on a loaded CI machine.
        pir_batch_window_ms: 150,
        ..config(50, 10.0)
    })
    .expect("server starts");
    let addr = server.addr();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                let index = t * 300;
                let response = client.pir_fetch(t, index).expect("round trip");
                let _ = client.bye(t);
                (index, response)
            })
        })
        .collect();
    for h in handles {
        let (index, response) = h.join().expect("fetch thread");
        match response {
            Response::Record(bytes) => {
                assert_eq!(bytes, tdf_serve::pir_record(0xBEEF, 32, index as usize));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("serve.pir.answers"), 8);
    let widest = snap.gauge("serve.pir.batch_max");
    assert!(
        widest >= 2,
        "8 simultaneous fetches through a 150 ms window must coalesce, \
         widest batch was {widest}"
    );
}

fn slow_clients_are_evicted_at_the_read_deadline() {
    obs::reset();
    let server = Server::start(ServerConfig {
        read_deadline_ms: 60,
        ..config(300, 100.0)
    })
    .expect("server starts");
    let mut idler = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        idler.query(1, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    // Stop sending. The worker's read deadline fires and reclaims the
    // connection; the idler's next round trip fails cleanly.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if idler.query(1, SQL).is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "slow client was never evicted");
    }
    // An actively-sending client on the same server is unaffected.
    let mut active = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        active.query(2, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    let _ = active.bye(2);
    server.shutdown();
    assert!(
        obs::snapshot().counter("serve.slow_evictions") >= 1,
        "eviction must be observable"
    );
}

/// One scripted session through every opcode and outcome, then one
/// malformed frame: the exact `serve.*` counters and the number of
/// timed requests are pinned.
fn every_opcode_and_outcome_is_counted_exactly() {
    obs::reset();
    let mut cfg = config(300, 2.0);
    cfg.session.max_overlap = 100;
    let server = Server::start(cfg).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("connect");
    let refusal = |r: Response| match r {
        Response::Refused { reason, .. } => reason,
        other => panic!("expected a refusal, got {other:?}"),
    };
    // Two answers spend user 1's 2ε; a third query set overlapping
    // neither meets the budget.
    for sql in [
        "SELECT COUNT(*) FROM t WHERE weight < 78",
        "SELECT COUNT(*) FROM t WHERE weight >= 78",
    ] {
        assert!(matches!(c.query(1, sql).unwrap(), Response::Perturbed(_)));
    }
    let tall = "SELECT COUNT(*) FROM t WHERE height >= 185";
    assert_eq!(refusal(c.query(1, tall).unwrap()), RefusalReason::Budget);
    // User 2's second, nearly identical query set is a tracker.
    assert!(matches!(c.query(2, SQL).unwrap(), Response::Perturbed(_)));
    let tracker = "SELECT COUNT(*) FROM t WHERE height >= 151";
    assert_eq!(
        refusal(c.query(2, tracker).unwrap()),
        RefusalReason::Tracker
    );
    // An empty query set is below the size floor.
    let empty = "SELECT COUNT(*) FROM t WHERE height >= 1000";
    assert_eq!(refusal(c.query(3, empty).unwrap()), RefusalReason::Policy);
    assert!(matches!(
        c.query(3, "SELEKT nope").unwrap(),
        Response::Error(_)
    ));
    assert!(matches!(c.pir_fetch(4, 7).unwrap(), Response::Record(_)));
    assert!(matches!(
        c.pir_fetch(4, 1 << 40).unwrap(),
        Response::Error(_)
    ));
    assert!(matches!(c.append(5, u32::MAX).unwrap(), Response::Error(_)));
    assert_eq!(c.append(5, 5).unwrap(), Response::Exact(305.0));
    assert_eq!(c.seal(5).unwrap(), Response::Exact(2.0));
    assert_eq!(c.disguise(5).unwrap(), Response::Exact(19.0));
    assert_eq!(refusal(c.disguise(5).unwrap()), RefusalReason::Policy);
    assert_eq!(c.restore(5).unwrap(), Response::Exact(19.0));
    assert_eq!(c.bye(5).unwrap(), Response::Bye);
    // A frame with an unknown opcode ends its connection unanswered.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&[9u8; 13]).expect("write");
    assert_eq!(raw.read(&mut [0u8; 1]).unwrap_or(0), 0);
    server.shutdown();

    let snap = obs::snapshot();
    let serve: BTreeMap<&str, u64> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .map(|(name, &value)| (name.as_str(), value))
        .collect();
    // Exact totals for the script above.
    let expected = BTreeMap::from([
        ("serve.answers", 7),
        ("serve.append_errors", 1),
        ("serve.append_rows", 5),
        ("serve.appends", 1),
        ("serve.connections", 2),
        ("serve.disguises", 1),
        ("serve.parse_errors", 1),
        ("serve.pir.answers", 1),
        ("serve.pir.batches", 1),
        ("serve.pir.range_errors", 1),
        ("serve.pir.requests", 2),
        ("serve.protocol_errors", 1),
        ("serve.refused.budget", 1),
        ("serve.refused.policy", 2),
        ("serve.refused.tracker", 1),
        ("serve.requests", 13),
        ("serve.restores", 1),
        ("serve.seals", 1),
        ("serve.sessions", 3),
    ]);
    assert_eq!(serve, expected);
    // Every request but BYE is timed: 13 counted requests + 2 fetches.
    let timed = snap.histogram("serve.request_ns").map_or(0, |h| h.count);
    assert_eq!(timed, 15);
}

fn injected_partial_response_is_a_client_error_never_a_partial_answer() {
    let server = Server::start(config(300, 10.0)).expect("server starts");
    type Call = fn(&mut Client) -> std::io::Result<Response>;
    let calls: [(&str, Call); 4] = [
        ("QUERY", |c| c.query(3, SQL)),
        ("PIR_FETCH", |c| c.pir_fetch(3, 7)),
        ("APPEND", |c| c.append(3, 5)),
        ("DISGUISE", |c| c.disguise(3)),
    ];
    for (name, call) in calls {
        faultkit::set_plan(Some(
            faultkit::FaultPlan::parse("serve.partial_response=1").unwrap(),
        ));
        let mut victim = Client::connect(server.addr()).expect("connect");
        // The server computes the answer, writes half the frame and
        // severs the socket. The framing makes that an I/O error at the
        // client — under no interleaving can it surface as an answer.
        let outcome = call(&mut victim);
        faultkit::set_plan(None);
        assert!(outcome.is_err(), "{name}: got {outcome:?}");
    }
    // The worker survives the severed connections and keeps serving.
    let mut next = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        next.query(4, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    let _ = next.bye(4);
    server.shutdown();
}

fn dropped_batch_still_answers_every_fetch_correctly() {
    let server = Server::start(ServerConfig {
        workers: 4,
        ..config(300, 10.0)
    })
    .expect("server starts");
    let addr = server.addr();
    faultkit::set_plan(Some(
        faultkit::FaultPlan::parse("pir.batch_drop=1").unwrap(),
    ));
    // The first sweep is dropped by the fault plan; the batcher degrades
    // to per-query retries and every client still gets the right bytes.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let index = t * 1000;
                let response = client.pir_fetch(t, index).expect("round trip");
                let _ = client.bye(t);
                (index, response)
            })
        })
        .collect();
    for h in handles {
        let (index, response) = h.join().expect("fetch thread");
        match response {
            Response::Record(bytes) => {
                assert_eq!(
                    bytes,
                    tdf_serve::pir_record(0xBEEF, 32, index as usize),
                    "index {index}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    faultkit::set_plan(None);
    server.shutdown();
}
