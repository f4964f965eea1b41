//! What delta pulls save on the wire, in bytes: a client pulls a sharded store over
//! real TCP sockets, once with full pulls and once with delta pulls, while the server
//! advances a scripted set of shards between pulls. Reply sizes come from the
//! transport's frame counters (`TransportStats`), so they count what actually
//! crossed the socket. No timings are taken.

use dssp_core::events::NO_TRACE;
use dssp_net::transport::{PullOutcome, PullView};
use dssp_net::{
    Message, ServerTransport, TcpServerTransport, TcpWorkerTransport, WorkerTransport,
    PROTOCOL_VERSION,
};
use dssp_ps::ShardedStore;
use std::thread;

const PARAMS: usize = 2048;
const SHARDS: usize = 8;
const PULLS: u32 = 12;

/// Which shards advance after pull `iter`.
type Pattern = fn(iter: u64, shard: usize, shards: usize) -> bool;

/// A few hot shards churn every iteration; each cold shard refreshes every 16th
/// iteration, staggered — the skew where most of the model is quiet.
fn skewed(iter: u64, shard: usize, shards: usize) -> bool {
    let hot = (shards / 8).max(1);
    shard < hot || iter % 16 == (shard as u64) % 16
}

/// Worst case: every shard advances every iteration, so a delta ships the whole model
/// plus per-shard headers.
fn all_stale(_iter: u64, _shard: usize, _shards: usize) -> bool {
    true
}

/// Answers each pull from the current store, then advances the shards the pattern
/// marks. Exits on `Done` or transport failure.
fn pull_server(mut transport: TcpServerTransport, pattern: Pattern) {
    let initial: Vec<f32> = (0..PARAMS).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut store = ShardedStore::new(initial, SHARDS);
    let grad: Vec<f32> = (0..PARAMS).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut iter: u64 = 0;
    loop {
        let Ok((rank, msg)) = transport.recv() else {
            return;
        };
        let known = match msg {
            Message::Hello { .. } => continue,
            Message::Pull { .. } => None,
            Message::PullDelta { known_versions, .. } => Some(known_versions),
            _ => return,
        };
        let view = PullView {
            clock: iter,
            versions: store.versions(),
            offsets: store.offsets(),
            weights: store.as_flat(),
            known: known.as_deref(),
        };
        if transport.send_pull_reply(rank, &view).is_err() {
            return;
        }
        for shard in 0..SHARDS {
            if pattern(iter, shard, SHARDS) {
                let (a, b) = store.key_range(shard);
                store.apply_shard(shard, &grad[..b - a], 1e-3);
            }
        }
        iter += 1;
    }
}

/// Average reply bytes per pull over [`PULLS`] pulls, after one warm-up pull that
/// fills the client's cache (and is always a full reply).
fn reply_bytes_per_pull(pattern: Pattern, delta: bool) -> f64 {
    let server = TcpServerTransport::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = thread::spawn(move || pull_server(server, pattern));

    let mut t = TcpWorkerTransport::connect(&addr).expect("connect to pull server");
    t.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        num_workers: 1,
        config_digest: 0,
    })
    .expect("hello");
    let mut weights = Vec::new();
    let mut versions = Vec::new();
    t.pull_into(delta, NO_TRACE, &mut weights, &mut versions)
        .expect("warm-up pull");
    let before = t.stats().bytes_received;
    for _ in 0..PULLS {
        match t.pull_into(delta, NO_TRACE, &mut weights, &mut versions) {
            Ok(PullOutcome::Applied(_)) => {}
            other => panic!("pull failed: {other:?}"),
        }
    }
    let received = t.stats().bytes_received - before;
    t.send(&Message::Done {
        iterations: u64::from(PULLS),
        epochs: 0,
        waiting_time_s: 0.0,
    })
    .expect("done");
    server_thread.join().expect("pull server");
    received as f64 / f64::from(PULLS)
}

#[test]
fn skewed_pattern_is_actually_skewed() {
    let shards = 16;
    let updates = (0..64u64)
        .flat_map(|iter| (0..shards).filter(move |&s| skewed(iter, s, shards)))
        .count();
    // 2 hot shards every iteration + ~1 cold shard per iteration.
    let per_iter = updates as f64 / 64.0;
    assert!(per_iter < 4.0, "skew collapsed: {per_iter} shards/iter");
    assert!(per_iter >= 2.0);
}

#[test]
fn delta_pulls_cut_reply_bytes_at_least_in_half_on_skewed_updates() {
    let full = reply_bytes_per_pull(skewed, false);
    let delta = reply_bytes_per_pull(skewed, true);
    assert!(
        full >= 2.0 * delta,
        "expected >=2x reply reduction, got {:.2} (full {full:.0} B, delta {delta:.0} B)",
        full / delta
    );
}

#[test]
fn delta_replies_cost_at_most_five_percent_more_when_every_shard_is_stale() {
    let full = reply_bytes_per_pull(all_stale, false);
    let delta = reply_bytes_per_pull(all_stale, true);
    assert!(
        delta <= 1.05 * full,
        "all-stale delta replies cost {:.3}x the full reply",
        delta / full
    );
}
