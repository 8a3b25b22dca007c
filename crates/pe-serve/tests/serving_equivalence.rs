//! The serving-path equivalence suite: for **every** cell of the paper's
//! Table-I grid, the integer fast path (`predict_int`) and the gate-level
//! simulated path must agree bit for bit through the service — including
//! ragged batch sizes around the 64-lane word boundary (1/63/64/65), which
//! exercise the bit-sliced engine's lane masking and chunk streaming.
//!
//! This is the serving twin of `pe-sim`'s differential suite: that one pins
//! the fast simulator to the scalar oracle; this one pins the whole
//! coalescing service (quantize → batch → simulate → reply) to the integer
//! golden model.
//!
//! The warm-stream test feeds repeated and near-constant feature rows
//! through the per-worker warm engine and pins its predictions *and* its
//! per-net toggle counts to the scalar reference at every lane width.

use pe_core::engine::NullSink;
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Service, ServiceConfig};
use pe_sim::{BatchMode, LaneWidth, Simulator, WarmSimulator};
use std::sync::Arc;
use std::time::Duration;

/// Batch sizes around the word boundary: a singleton, one short of a full
/// word, exactly one word, and one into the second chunk.
const RAGGED_SIZES: [usize; 4] = [1, 63, 64, 65];

#[test]
fn predict_int_matches_gate_level_across_the_table1_grid() {
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let keys = ModelKey::table1_grid();
    assert_eq!(keys.len(), 20, "5 datasets x 4 styles");
    // Train every cell up front, in parallel (the suite's dominant cost).
    registry.warm(&keys, pe_core::engine::default_threads(keys.len()), &mut NullSink);
    assert_eq!(registry.trainings(), 20);

    let service = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Verify, ..ServiceConfig::default() },
    );
    let mut served = 0u64;
    for &key in &keys {
        let entry = registry.get(key);
        for size in RAGGED_SIZES {
            let xs = entry.sample_requests(size);
            let replies = service.classify_batch(key, &xs);
            for (i, (reply, x)) in replies.iter().zip(&xs).enumerate() {
                let want = entry.predict_int(&entry.quantize_input(x));
                assert_eq!(
                    *reply,
                    Ok(want),
                    "{} batch size {size} sample {i}: gate-level reply diverged",
                    key.token()
                );
            }
            served += size as u64;
        }
    }
    let shards = service.metrics_store().model_snapshots(service.config().batch_max);
    assert_eq!(shards.len(), keys.len(), "one shard per model key");
    for (key, s) in &shards {
        assert_eq!(s.verify_mismatches, 0, "{}: per-batch verify must never fire", key.token());
        assert!(s.batches >= RAGGED_SIZES.len() as u64, "{} batches {}", key.token(), s.batches);
    }
    assert_eq!(shards.iter().map(|(_, s)| s.served).sum::<u64>(), served);
    service.shutdown();
    assert!(service.is_stopped());
}

/// `n` low-activity request rows: one held-out sample repeated, with a
/// single feature nudged every `period`-th row so the batch is *near*-
/// constant rather than perfectly constant.
fn low_activity_rows(entry: &pe_serve::ModelEntry, n: usize, period: usize) -> Vec<Vec<f64>> {
    let base = entry.sample_requests(1).remove(0);
    (0..n)
        .map(|i| {
            let mut x = base.clone();
            if i % period == 0 {
                let j = (i / period) % x.len();
                x[j] = 1.0 - x[j];
            }
            x
        })
        .collect()
}

#[test]
fn concurrent_model_shards_stay_disjoint_and_merge_into_the_aggregate() {
    // Two model keys hammered from many threads at once. Each metric shard
    // must account exactly its own key's traffic (disjoint histograms),
    // and the `metrics` exposition — the one place shards are merged for a
    // reader — must parse back field-for-field against the shard snapshots.
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let keys = [ModelKey::parse("cardio:seq").unwrap(), ModelKey::parse("cardio:par").unwrap()];
    registry.warm(&keys, pe_core::engine::default_threads(keys.len()), &mut NullSink);
    let service = Service::start(
        Arc::clone(&registry),
        ServiceConfig { mode: ServeMode::Verify, ..ServiceConfig::default() },
    );
    const THREADS: usize = 8;
    const ROUNDS: usize = 6; // even, so every thread hits both keys equally
    const BATCH: usize = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let service = Arc::clone(&service);
        let registry = Arc::clone(&registry);
        handles.push(std::thread::spawn(move || {
            for r in 0..ROUNDS {
                let key = keys[(t + r) % keys.len()];
                let entry = registry.get(key);
                let xs = entry.sample_requests(BATCH);
                let replies = service.classify_batch(key, &xs);
                for (i, (reply, x)) in replies.iter().zip(&xs).enumerate() {
                    let want = entry.predict_int(&entry.quantize_input(x));
                    assert_eq!(*reply, Ok(want), "{} round {r} sample {i}", key.token());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let per_key = (THREADS * ROUNDS / keys.len() * BATCH) as u64;

    let batch_max = service.config().batch_max;
    let shards = service.metrics_store().model_snapshots(batch_max);
    assert_eq!(shards.len(), keys.len(), "one shard per model key");
    for (key, s) in &shards {
        assert_eq!(s.submitted, per_key, "{} submitted", key.token());
        assert_eq!(s.served, per_key, "{} served", key.token());
        assert_eq!(s.verify_mismatches, 0, "{}", key.token());
        // Disjoint histograms: each shard holds exactly its own key's
        // samples, with no bleed from the other model's traffic.
        assert_eq!(s.queue_wait.count(), per_key, "{} queue-wait samples", key.token());
        assert_eq!(s.service_time.count(), per_key, "{} service-time samples", key.token());
        assert_eq!(s.latency.count(), per_key, "{} latency samples", key.token());
        assert!(s.batches >= 1, "{} ran batches", key.token());
        assert!(s.lane_width >= 1, "{} ran gate-level", key.token());
        // Verify mode runs the simulator with the shard's profile installed.
        assert!(s.profile.batches >= 1, "{} sim profile fed", key.token());
        assert!(s.profile.cell_evals > 0, "{} sim profile cell evals", key.token());
    }

    // The wire exposition parses back field-for-field against the shards.
    let text = service.metrics_text();
    assert!(text.ends_with("# EOF\n"), "{text}");
    for (key, s) in &shards {
        let m = key.token();
        for (series, want) in [
            ("pe_submitted_total", s.submitted),
            ("pe_served_total", s.served),
            ("pe_rejected_total", s.rejected),
            ("pe_verify_mismatches_total", s.verify_mismatches),
            ("pe_batches_total", s.batches),
            ("pe_gate_cycles_total", s.gate_cycles),
            ("pe_lane_width_words", s.lane_width),
            ("pe_sweeps_total", s.sweeps),
            ("pe_sim_batches_total", s.profile.batches),
            ("pe_sim_sweeps_total", s.profile.sweeps),
            ("pe_sim_cycles_total", s.profile.cycles),
            ("pe_sim_cell_evals_total", s.profile.cell_evals),
        ] {
            let line = format!("{series}{{model=\"{m}\"}} {want}");
            assert!(text.contains(&line), "exposition missing {line:?}");
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        for (name, h) in [
            ("pe_queue_wait_us", &s.queue_wait),
            ("pe_service_time_us", &s.service_time),
            ("pe_latency_us", &s.latency),
        ] {
            for (q, tag) in [(0.5, "0.5"), (0.99, "0.99")] {
                let line =
                    format!("{name}{{model=\"{m}\",quantile=\"{tag}\"}} {:.1}", us(h.quantile(q)));
                assert!(text.contains(&line), "exposition missing {line:?}");
            }
            let line = format!("{name}_count{{model=\"{m}\"}} {}", h.count());
            assert!(text.contains(&line), "exposition missing {line:?}");
        }
    }
    service.shutdown();
}

#[test]
fn warm_stream_is_bit_identical_at_every_lane_width() {
    // The warm-state equivalence pin: a worker's `WarmSimulator` carries
    // slab state *across* batches, so a long repeated-request stream must
    // stay bit-identical — predictions AND toggle counters — to a
    // long-lived scalar reference, at every `LaneWidth`. Predictions are
    // additionally pinned to fresh dense per-batch simulation and the
    // integer golden model (a fresh engine starts from power-on reset, so
    // its per-batch toggle *deltas* are the one thing that legitimately
    // differs from a warm engine; see the `pe_sim::warm` module docs for
    // the contract).
    //
    // `width` is the cap: each batch sweeps the narrowest slab holding it,
    // so the sizes below switch the warm engine's slab width up and down
    // mid-stream. A long-lived scalar reference chunking at the cap pins
    // outputs, cycles and toggle counters across every switch.
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let key = ModelKey::parse("cardio:seq").unwrap();
    let entry = registry.get(key);
    // Ragged batch sizes around the word and slab boundaries, as the batcher
    // coalesces them: repeated/near-constant rows, quantized once up front.
    let batches: Vec<Vec<Vec<i64>>> = [64usize, 1, 63, 65, 64, 32, 129, 257, 300, 513]
        .iter()
        .map(|&n| {
            low_activity_rows(&entry, n, 17).iter().map(|x| entry.quantize_input(x)).collect()
        })
        .collect();

    for width in [LaneWidth::W1, LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
        let mut warm = WarmSimulator::new(&entry.netlist, width).unwrap();
        warm.enable_activity();
        let mut scalar = Simulator::new(&entry.netlist).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.set_lane_width(width);
        scalar.enable_activity();
        for (b, vectors) in batches.iter().enumerate() {
            let got = warm.run_batch(&entry.netlist, vectors, entry.cycles_per_vector, "class");
            let want = scalar.run_batch(vectors, entry.cycles_per_vector, "class");
            assert_eq!(got, want, "{width:?} batch {b}: warm engine diverged from scalar");
            // Fresh dense per-batch simulation and the integer golden model
            // agree on every prediction.
            let fresh = {
                let mut sim = Simulator::new(&entry.netlist).unwrap();
                sim.set_lane_width(width);
                sim.run_batch(vectors, entry.cycles_per_vector, "class")
            };
            assert_eq!(
                got.outputs, fresh.outputs,
                "{width:?} batch {b}: warm predictions diverged from fresh dense"
            );
            for (i, (y, x)) in got.outputs.iter().zip(vectors).enumerate() {
                assert_eq!(*y, entry.predict_int(x) as i64, "{width:?} batch {b} sample {i}");
            }
            // Carried-state equivalence after every batch, not just at the
            // end: toggle counters over the worker's whole serving history.
            assert_eq!(
                warm.activity(),
                scalar.activity(),
                "{width:?} batch {b}: warm toggle counters diverged from scalar"
            );
        }
        assert_eq!(warm.batches(), batches.len() as u64);
        assert_eq!(warm.cycles(), scalar.cycles(), "{width:?}");
    }
}
