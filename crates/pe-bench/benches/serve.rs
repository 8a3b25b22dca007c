//! Benches for the `pe-serve` serving path: coalesced 64-lane batches vs
//! one-request-per-`run_batch` serving vs the integer fast path, all on the
//! Table-I sequential SVM (Cardio).
//!
//! Run with `cargo bench -p pe-bench --bench serve`; the printed per-batch
//! times divided by the request counts give per-request costs. The
//! coalescing payoff in simulator work is asserted exactly by `pe-serve`'s
//! `coalesced_requests_cost_a_64th_of_one_request_batches` test; the
//! end-to-end serving benchmark is `perfbench`'s `serve_seq` workload.

use pe_bench::harness::{black_box, BenchGroup};
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Service, ServiceConfig};
use std::sync::Arc;

fn main() {
    let mut g = BenchGroup::new("serve");
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let key = ModelKey::parse("cardio:seq").expect("key parses");
    let xs = registry.get(key).sample_requests(256);

    let coalesced = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Verify, ..ServiceConfig::default() },
    );
    g.bench("coalesced_verify_256_requests", || {
        let r = coalesced.classify_batch(key, &xs);
        assert!(r.iter().all(Result::is_ok));
        black_box(r);
    });

    let single = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Verify, batch_max: 1, ..ServiceConfig::default() },
    );
    g.bench("single_lane_verify_32_requests", || {
        let r = single.classify_batch(key, &xs[..32]);
        assert!(r.iter().all(Result::is_ok));
        black_box(r);
    });

    let fast = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Int, ..ServiceConfig::default() },
    );
    g.bench("int_fast_path_256_requests", || {
        let r = fast.classify_batch(key, &xs);
        assert!(r.iter().all(Result::is_ok));
        black_box(r);
    });

    for svc in [&coalesced, &single] {
        let shard = svc.metrics_store().shard(key).snapshot(svc.config().batch_max);
        assert_eq!(shard.verify_mismatches, 0);
    }
}
