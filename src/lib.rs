//! **printed-svm** — energy-efficient printed machine-learning classifiers
//! with sequential SVMs.
//!
//! A full-stack Rust reproduction of *"Late Breaking Results:
//! Energy-Efficient Printed Machine Learning Classifiers with Sequential
//! SVMs"* (DATE 2025, arXiv:2501.16828): from SVM/MLP training and
//! post-training quantization, through bespoke gate-level circuit
//! generation, to an EGFET printed-electronics synthesis/timing/power flow
//! that regenerates the paper's Table I and every derived claim.
//!
//! This crate is a facade: it re-exports the workspace's layers under one
//! roof. See the individual crates for depth:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | numerics | [`fixed`] | fixed-point, quantization, CSD, precision search |
//! | data | [`data`] | UCI-shaped synthetic datasets, CSV, splits, metrics |
//! | learning | [`ml`] | linear SVMs (OvR/OvO), MLPs, integer-exact quantized models |
//! | circuits | [`netlist`] | gate-level IR, folding builder, Verilog export |
//! | static analysis | [`lint`] | structural lints, constant propagation, fault collapsing |
//! | PDK | [`cells`] | EGFET cell library, tech params, printed batteries |
//! | EDA flow | [`synth`] | datapath generators, STA, area, power |
//! | simulation | [`sim`] | cycle-based gate-level simulator, activity |
//! | the paper | [`core`] | sequential SVM + baselines + pipeline + claims |
//! | observability | [`obs`] | windowed metrics, request tracing, simulator profiling hooks |
//! | serving | [`serve`] | batch-coalescing classification service + TCP front end |
//!
//! # Quickstart
//!
//! ```no_run
//! use printed_svm::prelude::*;
//!
//! // Reproduce one Table-I row: the sequential SVM on Cardio.
//! let report = run_experiment(
//!     UciProfile::Cardio,
//!     DesignStyle::SequentialSvm,
//!     &RunOptions::default(),
//! );
//! println!("{}", report.one_line());
//! assert_eq!(report.mismatches, 0); // gate-level == integer golden model
//! ```
//!
//! Grid runs go through the shared parallel engine — one trained model per
//! `(dataset, style)` pair, jobs fanned out over scoped threads:
//!
//! ```no_run
//! use printed_svm::prelude::*;
//!
//! let engine = ExperimentEngine::table1_grid(RunOptions::default()).with_threads(4);
//! let table = engine.run();
//! println!("{}", table.to_markdown());
//! ```

pub use pe_cells as cells;
pub use pe_core as core;
pub use pe_data as data;
pub use pe_fixed as fixed;
pub use pe_lint as lint;
pub use pe_ml as ml;
pub use pe_netlist as netlist;
pub use pe_obs as obs;
pub use pe_serve as serve;
pub use pe_sim as sim;
pub use pe_synth as synth;

/// The most common imports, for examples and quick scripts.
pub mod prelude {
    pub use pe_cells::{Battery, EgfetLibrary, TechParams};
    pub use pe_core::engine::{ExperimentEngine, Job, ProgressSink, ReportSink};
    pub use pe_core::pipeline::{
        build_netlist, cycles_per_inference, prepare_model, run_experiment, run_prepared, Prepared,
        PreparedModel, RunOptions,
    };
    pub use pe_core::report::{paper_table1, DesignReport, Table1};
    pub use pe_core::styles::DesignStyle;
    pub use pe_data::{train_test_split, Dataset, Normalizer, UciProfile};
    pub use pe_lint::{collapse_fault_sites, lint_netlist, Lint, LintReport, Severity};
    pub use pe_ml::linear::SvmTrainParams;
    pub use pe_ml::multiclass::{MulticlassScheme, SvmModel};
    pub use pe_ml::{QuantizedMlp, QuantizedSvm};
    pub use pe_netlist::{Builder, Netlist, Word};
    pub use pe_serve::{ModelKey, ModelRegistry, ServeMode, Service, ServiceConfig};
    pub use pe_sim::Simulator;
}
