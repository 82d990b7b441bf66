//! Scripted unsubscribe/resubscribe smoke session for CI.
//!
//! Starts a server on an ephemeral port with a seed taken from
//! `TDF_SEED` and drives one scripted client session over a real
//! socket: a successful DISGUISE, the typed refusals (double disguise,
//! unknown owner, restore of a never-disguised user), a successful
//! RESTORE, and a query riding the same connection to show the
//! analytic path is untouched by ledger traffic. The transcript is
//! diffed against `ci/golden/disguise_smoke.txt` by `ci/check.sh`.
//! Everything printed is deterministic in the seed: row ownership is
//! round-robin, refusal messages are typed, and the script is a single
//! connection, so there is no scheduling in the transcript.

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
        disguise_users: 8,
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

    println!("# tdf-serve disguise smoke transcript (seed {seed})");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // 400 ledger rows round-robined over 8 owners: 50 rows each. User 5
    // unsubscribes; the answer is the number of rows re-owned by ghosts.
    let disguised = client.disguise(5).expect("disguise round-trips");
    println!("u5 disguise -> {disguised}");

    // The wrong-state requests are typed policy refusals, not errors.
    let twice = client.disguise(5).expect("disguise round-trips");
    println!("u5 disguise again -> {twice}");
    let unknown = client.disguise(9000).expect("disguise round-trips");
    println!("u9000 disguise -> {unknown}");
    let phantom = client.restore(6).expect("restore round-trips");
    println!("u6 restore -> {phantom}");

    // Queries keep flowing on the same connection while user 5 is out.
    let answered = client
        .query(2, "SELECT COUNT(*) FROM t WHERE weight < 78")
        .expect("query round-trips");
    println!("u2 query -> {answered}");

    // Resubscribe: the same 50 rows come back, exactly once.
    let restored = client.restore(5).expect("restore round-trips");
    println!("u5 restore -> {restored}");
    let again = client.restore(5).expect("restore round-trips");
    println!("u5 restore again -> {again}");

    let farewell = client.bye(5).expect("bye round-trips");
    println!("u5 bye -> {farewell}");

    server.shutdown();
    println!("shutdown complete");
}
