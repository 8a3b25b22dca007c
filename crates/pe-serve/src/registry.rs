//! The model registry: prepared models and elaborated netlists, memoized
//! per `(dataset, style)`.
//!
//! Serving a classification request needs everything `pe-core`'s pipeline
//! produces *before* the per-request work: a trained-and-quantized model
//! (the integer golden reference) and its bespoke netlist. Both are
//! immutable once built, so the registry computes them exactly once per key — the same
//! `Mutex<HashMap<_, Arc<OnceLock<_>>>>` discipline as
//! `pe_core::engine`'s model cache, which keeps concurrent first requests
//! for the *same* key serialized while distinct keys train in parallel —
//! and hands out [`Arc`]s. Each service worker builds its own warm engine
//! from an entry once ([`ModelEntry::warm_simulator`]) and keeps it next to
//! the entry's `Arc`.
//!
//! Admission is gated on static analysis: every netlist is linted
//! ([`pe_lint::lint_netlist`]) before it is served, and a netlist
//! carrying any Error-severity diagnostic (combinational cycle,
//! multi-driven net, …) is refused — [`ModelRegistry::try_get`] returns the
//! [`LintReport`] instead of an entry, and the refusal is memoized like a
//! success so a broken generator cannot retrain on every request.

use pe_core::engine::{parallel_map, ProgressSink};
use pe_core::pipeline::{
    build_netlist, cycles_per_inference, prepare_model, Prepared, PreparedModel, RunOptions,
};
use pe_core::styles::DesignStyle;
use pe_data::UciProfile;
use pe_lint::{lint_netlist, LintReport};
use pe_sim::{LaneWidth, WarmSimulator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which model a request addresses: one cell of the paper's Table-I grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Dataset profile.
    pub profile: UciProfile,
    /// Design style.
    pub style: DesignStyle,
}

impl ModelKey {
    /// Creates a key.
    #[must_use]
    pub fn new(profile: UciProfile, style: DesignStyle) -> Self {
        ModelKey { profile, style }
    }

    /// Every key of the paper's 5 × 4 evaluation grid, in Table-I order.
    #[must_use]
    pub fn table1_grid() -> Vec<ModelKey> {
        UciProfile::all()
            .into_iter()
            .flat_map(|p| DesignStyle::all().into_iter().map(move |s| ModelKey::new(p, s)))
            .collect()
    }

    /// The wire token for this key: `profile:style`, e.g. `cardio:seq`.
    #[must_use]
    pub fn token(&self) -> String {
        format!("{}:{}", profile_token(self.profile), style_token(self.style))
    }

    /// Parses a `profile:style` token (the inverse of [`ModelKey::token`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown profiles or styles.
    pub fn parse(s: &str) -> Result<ModelKey, String> {
        let (p, st) =
            s.split_once(':').ok_or_else(|| format!("expected profile:style, got {s:?}"))?;
        Ok(ModelKey::new(parse_profile(p)?, parse_style(st)?))
    }
}

/// The wire token of a dataset profile (lowercase Table-I name).
#[must_use]
pub fn profile_token(profile: UciProfile) -> &'static str {
    match profile {
        UciProfile::Cardio => "cardio",
        UciProfile::Dermatology => "dermatology",
        UciProfile::PenDigits => "pendigits",
        UciProfile::RedWine => "redwine",
        UciProfile::WhiteWine => "whitewine",
    }
}

/// The wire token of a design style.
#[must_use]
pub fn style_token(style: DesignStyle) -> &'static str {
    match style {
        DesignStyle::SequentialSvm => "seq",
        DesignStyle::ParallelSvm => "par",
        DesignStyle::ApproxParallelSvm => "approx",
        DesignStyle::ParallelMlp => "mlp",
    }
}

/// Parses a dataset-profile token (case-insensitive).
///
/// # Errors
///
/// Returns a message listing the valid tokens on failure.
pub fn parse_profile(tok: &str) -> Result<UciProfile, String> {
    match tok.to_ascii_lowercase().as_str() {
        "cardio" => Ok(UciProfile::Cardio),
        "dermatology" => Ok(UciProfile::Dermatology),
        "pendigits" => Ok(UciProfile::PenDigits),
        "redwine" => Ok(UciProfile::RedWine),
        "whitewine" => Ok(UciProfile::WhiteWine),
        other => Err(format!(
            "unknown profile {other:?} (expected cardio|dermatology|pendigits|redwine|whitewine)"
        )),
    }
}

/// Parses a design-style token (case-insensitive; long names accepted).
///
/// # Errors
///
/// Returns a message listing the valid tokens on failure.
pub fn parse_style(tok: &str) -> Result<DesignStyle, String> {
    match tok.to_ascii_lowercase().as_str() {
        "seq" | "sequential" => Ok(DesignStyle::SequentialSvm),
        "par" | "parallel" => Ok(DesignStyle::ParallelSvm),
        "approx" => Ok(DesignStyle::ApproxParallelSvm),
        "mlp" => Ok(DesignStyle::ParallelMlp),
        other => Err(format!("unknown style {other:?} (expected seq|par|approx|mlp)")),
    }
}

/// Everything the serving path needs for one model, built once and shared.
#[derive(Debug)]
pub struct ModelEntry {
    /// The key this entry was built for.
    pub key: ModelKey,
    /// The trained-and-quantized model plus its held-out test set (the
    /// integer golden reference the gate-level path is verified against).
    pub prepared: Prepared,
    /// The elaborated bespoke netlist.
    pub netlist: pe_netlist::Netlist,
    /// `run_batch` cycles per vector: the class count for the sequential
    /// style, 0 (combinational settle) for the parallel styles.
    pub cycles_per_vector: u64,
    /// The bit-sliced slab width cap (and chunk size) of batches over this
    /// model — each batch sweeps the narrowest slab that holds it, up to
    /// this ([`LaneWidth::for_batch`]): the
    /// registry's [`RunOptions::lane_width`] override when set, else the
    /// per-model default ([`LaneWidth::auto_for_netlist`] — printed
    /// classifiers are small enough that this is almost always the full
    /// 8-word slab, 512 lanes per sweep).
    pub lane_width: LaneWidth,
}

/// Statically lints a netlist at admission time.
///
/// # Errors
///
/// Returns the full [`LintReport`] when the netlist carries any
/// Error-severity diagnostic — such a design must not be simulated, let
/// alone served. Warn/Info diagnostics (dead cells, constant outputs) are
/// admission-clean: the generated Table-I designs legitimately carry them.
pub fn admit_netlist(nl: &pe_netlist::Netlist) -> Result<(), LintReport> {
    let report = lint_netlist(nl);
    if report.has_errors() {
        Err(report)
    } else {
        Ok(())
    }
}

impl ModelEntry {
    fn build(key: ModelKey, opts: &RunOptions) -> Result<Self, LintReport> {
        let prepared = prepare_model(key.profile, key.style, opts);
        let netlist = build_netlist(key.style, &prepared);
        admit_netlist(&netlist)?;
        let cycles_per_vector = if key.style == DesignStyle::SequentialSvm {
            cycles_per_inference(key.style, &prepared)
        } else {
            0
        };
        let lane_width = opts.lane_width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&netlist));
        Ok(ModelEntry { key, prepared, netlist, cycles_per_vector, lane_width })
    }

    /// A warm serving engine over this entry's netlist, at power-on and
    /// capped at the entry's [`lane_width`](ModelEntry::lane_width). It
    /// holds no borrow: pass [`ModelEntry::netlist`] to every
    /// [`run_batch`](WarmSimulator::run_batch).
    #[must_use]
    pub fn warm_simulator(&self) -> WarmSimulator {
        WarmSimulator::new(&self.netlist, self.lane_width).expect("linted designs are acyclic")
    }

    /// Number of input features a request must carry.
    #[must_use]
    pub fn num_features(&self) -> usize {
        match &self.prepared.model {
            PreparedModel::Svm(q) => q.num_features(),
            PreparedModel::Mlp(q) => q.w1_q()[0].len(),
        }
    }

    /// Quantizes a normalized (`[0,1]`) sample to the model's input grid.
    #[must_use]
    pub fn quantize_input(&self, x: &[f64]) -> Vec<i64> {
        match &self.prepared.model {
            PreparedModel::Svm(q) => q.quantize_input(x),
            PreparedModel::Mlp(q) => q.quantize_input(x),
        }
    }

    /// The integer golden-model prediction — the serving fast path.
    #[must_use]
    pub fn predict_int(&self, x_q: &[i64]) -> usize {
        match &self.prepared.model {
            PreparedModel::Svm(q) => q.predict_int(x_q),
            PreparedModel::Mlp(q) => q.predict_int(x_q),
        }
    }

    /// `n` normalized request vectors cycled from the held-out test set —
    /// the shared request source for benches, load generation and tests.
    #[must_use]
    pub fn sample_requests(&self, n: usize) -> Vec<Vec<f64>> {
        let test = &self.prepared.test;
        (0..n).map(|i| test.sample(i % test.len()).0.to_vec()).collect()
    }
}

/// Loads and memoizes [`ModelEntry`]s per key. Safe for concurrent use;
/// each key is built exactly once even under simultaneous first requests.
#[derive(Debug)]
pub struct ModelRegistry {
    opts: RunOptions,
    entries: Mutex<HashMap<ModelKey, Arc<OnceLock<AdmitResult>>>>,
    trainings: AtomicUsize,
}

/// What one admission attempt produced: a servable entry, or the lint
/// report that refused it. Memoized either way.
type AdmitResult = Result<Arc<ModelEntry>, Arc<LintReport>>;

impl ModelRegistry {
    /// A registry preparing models under the given pipeline options.
    #[must_use]
    pub fn new(opts: RunOptions) -> Self {
        ModelRegistry { opts, entries: Mutex::new(HashMap::new()), trainings: AtomicUsize::new(0) }
    }

    /// The pipeline options models are prepared under.
    #[must_use]
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The entry for `key`, training, elaborating and linting it on first
    /// request.
    ///
    /// # Errors
    ///
    /// Returns the memoized [`LintReport`] when the elaborated netlist was
    /// refused admission (Error-severity diagnostics).
    pub fn try_get(&self, key: ModelKey) -> AdmitResult {
        let slot = {
            let mut map = self.entries.lock().expect("registry poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        // Build outside the map lock; OnceLock serializes per key so other
        // keys keep building in parallel.
        slot.get_or_init(|| {
            self.trainings.fetch_add(1, Ordering::Relaxed);
            ModelEntry::build(key, &self.opts).map(Arc::new).map_err(Arc::new)
        })
        .clone()
    }

    /// [`ModelRegistry::try_get`] for callers that treat refusal as fatal.
    ///
    /// # Panics
    ///
    /// Panics with the lint report when the model was refused admission —
    /// the generated Table-I designs always admit, so serving binaries use
    /// this directly.
    #[must_use]
    pub fn get(&self, key: ModelKey) -> Arc<ModelEntry> {
        self.try_get(key)
            .unwrap_or_else(|report| panic!("model {} refused admission:\n{report}", key.token()))
    }

    /// Pre-builds the entries for `keys` on `threads` workers, narrating
    /// each finished model through `progress` (the engine's shared
    /// [`ProgressSink`], so binaries reuse one progress printer).
    pub fn warm(&self, keys: &[ModelKey], threads: usize, progress: &mut dyn ProgressSink) {
        let progress = Mutex::new(progress);
        parallel_map(keys, threads, |&key| {
            let t0 = Instant::now();
            let entry = self.get(key);
            let line = format!(
                "warmed {:<18} {} cells, {} features, {:.0} ms",
                key.token(),
                entry.netlist.num_cells(),
                entry.num_features(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            progress.lock().expect("progress poisoned").note(&line);
        });
    }

    /// How many entries were actually built (memoization accounting).
    #[must_use]
    pub fn trainings(&self) -> usize {
        self.trainings.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_tokens_round_trip() {
        for key in ModelKey::table1_grid() {
            assert_eq!(ModelKey::parse(&key.token()).unwrap(), key);
        }
        assert!(ModelKey::parse("cardio").is_err());
        assert!(ModelKey::parse("cardio:nope").is_err());
        assert!(ModelKey::parse("nope:seq").is_err());
        assert_eq!(
            ModelKey::parse("CARDIO:Sequential").unwrap(),
            ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm)
        );
    }

    #[test]
    fn entries_build_once_and_serve_predictions() {
        let reg = ModelRegistry::new(RunOptions::default());
        let key = ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm);
        let a = reg.get(key);
        let b = reg.get(key);
        assert_eq!(reg.trainings(), 1, "second get must hit the cache");
        assert!(Arc::ptr_eq(&a, &b));
        let (x, _) = a.prepared.test.sample(0);
        let x_q = a.quantize_input(x);
        assert_eq!(x_q.len(), a.num_features());
        let class = a.predict_int(&x_q);
        assert!(class < 3, "Cardio has 3 classes");
        // The entry builds a working warm engine.
        let mut sim = a.warm_simulator();
        let r = sim.run_batch(&a.netlist, &[x_q], a.cycles_per_vector, "class");
        assert_eq!(r.outputs[0] as usize, class, "gate level must match the golden model");
    }

    #[test]
    fn admission_accepts_table1_designs_and_refuses_broken_netlists() {
        use pe_netlist::testing::RawNetlistBuilder;
        use pe_netlist::{CellKind, Driver};

        // A representative grid cell admits (Warn-severity diagnostics like
        // dead cells are fine; Errors are not).
        let reg = ModelRegistry::new(RunOptions::default());
        let key = ModelKey::new(UciProfile::Cardio, DesignStyle::ParallelSvm);
        assert!(reg.try_get(key).is_ok());

        // A multi-driven net is an Error: the netlist must be refused.
        let mut rb = RawNetlistBuilder::new("contended");
        let x = rb.input("x0");
        let n = rb.net(Driver::Input);
        rb.cell(CellKind::Inv, &[x], n);
        rb.cell(CellKind::Buf, &[x], n);
        rb.output("o0", &[n]);
        let broken = rb.finish();
        let report = admit_netlist(&broken).expect_err("multi-driven nets must be refused");
        assert!(report.has_errors());
    }

    #[test]
    fn warm_narrates_progress() {
        struct Lines(Vec<String>);
        impl ProgressSink for Lines {
            fn note(&mut self, line: &str) {
                self.0.push(line.to_owned());
            }
        }
        let reg = ModelRegistry::new(RunOptions::default());
        let keys = [
            ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm),
            ModelKey::new(UciProfile::Cardio, DesignStyle::ParallelSvm),
        ];
        let mut sink = Lines(Vec::new());
        reg.warm(&keys, 2, &mut sink);
        assert_eq!(sink.0.len(), 2);
        assert_eq!(reg.trainings(), 2);
        assert!(sink.0.iter().any(|l| l.contains("cardio:seq")));
    }
}
