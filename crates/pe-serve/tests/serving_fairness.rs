//! The fairness regression suite: a `pendigits:par` flood must not starve
//! a `cardio:seq` trickle.
//!
//! The scenario from the issue that motivated weighted-fair admission: a
//! burst of requests for the big model fills the queue, then a handful of
//! small-model requests arrive *behind* the entire flood. Under FIFO
//! drain the trickle's queue wait would be the whole flood's drain time;
//! under weighted-fair admission the scheduler interleaves the trickle
//! after at most a batch or two.
//!
//! Every assertion is **relational on one run** — trickle quantiles
//! against flood quantiles from the same per-model metric shards — so the
//! test measures scheduling order, not machine speed, and stays
//! deterministic on loaded CI boxes. The fine-grained virtual-time
//! properties (exact interleave positions, the work-conserving flush
//! rule) are pinned by the deterministic unit tests in
//! `pe_serve::service`; this suite checks the same policy end to end
//! through real worker threads and metric shards.

use pe_core::engine::NullSink;
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_trickle_is_not_starved_behind_a_flood() {
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let flood_key = ModelKey::parse("pendigits:par").unwrap();
    let trickle_key = ModelKey::parse("cardio:seq").unwrap();
    registry.warm(&[flood_key, trickle_key], 2, &mut NullSink);

    // One worker and small batches: the flood needs
    // many serial batch drains, which is exactly the window where FIFO
    // would pin the trickle at the back of the line. Int mode keeps each
    // batch cheap — the test is about queueing, not gate evaluation.
    let service = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Int, workers: 1, batch_max: 64, queue_capacity: 4096 },
    );

    const FLOOD: usize = 1024; // 16 serial batches of 64
    const TRICKLE: usize = 16;
    let flood_xs = registry.get(flood_key).sample_requests(FLOOD);
    let trickle_xs = registry.get(trickle_key).sample_requests(TRICKLE);

    // The whole flood is queued first; the trickle arrives strictly after.
    let flood_tickets = service.submit_many(flood_key, &flood_xs);
    let trickle_tickets = service.submit_many(trickle_key, &trickle_xs);
    for t in flood_tickets {
        t.unwrap().wait().unwrap();
    }
    for t in trickle_tickets {
        t.unwrap().wait().unwrap();
    }

    let shards = service.metrics_store().model_snapshots(service.config().batch_max);
    let shard = |key: ModelKey| {
        shards.iter().find(|(k, _)| *k == key).map(|(_, s)| s).unwrap_or_else(|| {
            panic!("no metric shard for {}", key.token());
        })
    };
    let flood = shard(flood_key);
    let trickle = shard(trickle_key);
    assert_eq!(flood.served, FLOOD as u64);
    assert_eq!(trickle.served, TRICKLE as u64);
    assert!(flood.batches >= 16, "flood must drain in many serial batches, got {}", flood.batches);

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (flood_p99, trickle_p99) =
        (flood.queue_wait.quantile(0.99), trickle.queue_wait.quantile(0.99));
    // Arriving behind 16 batches' worth of flood, FIFO would give the
    // trickle a queue wait at (or past) the flood's own p99. Fair
    // admission interleaves it after at most a couple of drains, so even
    // with the histogram's power-of-two bucket granularity the trickle's
    // p99 must sit well under the flood's.
    assert!(
        trickle_p99.as_nanos() <= flood_p99.as_nanos() / 2,
        "trickle queue-wait p99 {:.1}us not bounded under flood p99 {:.1}us: starved",
        us(trickle_p99),
        us(flood_p99)
    );

    service.shutdown();
    assert!(service.is_stopped());
}
