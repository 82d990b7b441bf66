//! Scripted end-to-end smoke session for CI.
//!
//! Starts a server on an ephemeral port with a seed taken from
//! `TDF_SEED`, drives one scripted client session over a real socket —
//! answered queries, one budget-exhaustion refusal, one tracker
//! refusal, a clean BYE — then shuts the server down, printing a
//! transcript that `ci/check.sh` diffs against
//! `ci/golden/serve_smoke.txt`. Everything printed is deterministic in
//! the seed: noise streams are seeded per user and the script is a
//! single connection, so there is no scheduling in the transcript.

use tdf_serve::{Client, ServerConfig, SessionConfig};

fn seed_from_env() -> u64 {
    std::env::var("TDF_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0x7DF)
}

fn main() {
    let seed = seed_from_env();
    let server = tdf_serve::Server::start(ServerConfig {
        rows: 400,
        seed,
        workers: 2,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 3.0,
            seed,
            min_query_set: 2,
            max_overlap: 300,
            max_rows: 0,
        },
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port");

    println!("# tdf-serve smoke transcript (seed {seed})");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // User 1 exhausts a 3ε budget: the halves of the weight range are
    // (near-)disjoint query sets, so the overlap defence stays quiet and
    // the fourth query hits the budget wall.
    let budget_script = [
        "SELECT COUNT(*) FROM t WHERE weight < 78",
        "SELECT COUNT(*) FROM t WHERE weight >= 78",
        "SELECT AVG(blood_pressure) FROM t WHERE weight < 78",
        "SELECT COUNT(*) FROM t WHERE weight >= 78",
    ];
    for (i, sql) in budget_script.iter().enumerate() {
        let response = client.query(1, sql).expect("query round-trips");
        println!("u1 q{} {sql} -> {response}", i + 1);
    }

    // User 2 walks into the tracker defence: two nearly identical query
    // sets overlap far beyond the permitted 300 records.
    let tracker_script = [
        "SELECT AVG(weight) FROM t WHERE height >= 150",
        "SELECT AVG(weight) FROM t WHERE height >= 151",
    ];
    for (i, sql) in tracker_script.iter().enumerate() {
        let response = client.query(2, sql).expect("query round-trips");
        println!("u2 q{} {sql} -> {response}", i + 1);
    }

    // User 3 fetches a PIR record (seed-deterministic contents) and then
    // asks for one past the end of the store.
    let fetched = client.pir_fetch(3, 7).expect("fetch round-trips");
    println!("u3 fetch 7 -> {fetched}");
    let ranged = client.pir_fetch(3, 1 << 40).expect("fetch round-trips");
    println!("u3 fetch 2^40 -> {ranged}");

    let farewell = client.bye(1).expect("bye round-trips");
    println!("u1 bye -> {farewell}");

    server.shutdown();
    println!("shutdown complete");
}
