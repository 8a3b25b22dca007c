//! Generates the paper-vs-measured comparison tables for EXPERIMENTS.md:
//! runs the full Table I grid and renders it side by side with the paper's
//! published numbers, plus every derived claim: energy ratios (10.6x / 5.4x
//! / 3.46x, 6.5x average), accuracy deltas (+2.02 / +3.13 / +4.38 points),
//! the PenDigits exception, the printed-battery power feasibility (peak
//! 22.9 mW / avg 13.58 mW vs Molex 30 mW) and the energy winner per
//! dataset.
//!
//! Usage: `cargo run --release -p pe-bench --bin experiments > EXPERIMENTS.generated.md`

use pe_bench::build_table1;
use pe_cells::Battery;
use pe_core::pipeline::RunOptions;
use pe_core::report::paper_table1;
use pe_core::styles::DesignStyle;

fn main() {
    let table = build_table1(&RunOptions::default());
    let paper = paper_table1();

    println!("## Table I — paper vs measured (per cell)\n");
    println!("| Dataset | Model | Acc. paper/ours (%) | Area paper/ours (cm2) | Power paper/ours (mW) | Freq paper/ours (Hz) | Latency paper/ours (ms) | Energy paper/ours (mJ) |");
    println!("|---|---|---|---|---|---|---|---|");
    for r in &table.rows {
        let p = paper.iter().find(|p| p.dataset == r.dataset && p.style == r.style);
        match p {
            Some(p) => println!(
                "| {} | {} | {:.1} / {:.1} | {:.1} / {:.1} | {:.1} / {:.2} | {:.0} / {:.0} | {:.0} / {:.0} | {:.2} / {:.3} |",
                r.dataset, r.style.label(),
                p.acc_pct, r.accuracy_pct,
                p.area_cm2, r.area_cm2,
                p.power_mw, r.power_mw,
                p.freq_hz, r.freq_hz,
                p.latency_ms, r.latency_ms,
                p.energy_mj, r.energy_mj,
            ),
            None => println!(
                "| {} | {} | n/a / {:.1} | n/a / {:.1} | n/a / {:.2} | n/a / {:.0} | n/a / {:.0} | n/a / {:.3} |",
                r.dataset, r.style.label(),
                r.accuracy_pct, r.area_cm2, r.power_mw, r.freq_hz, r.latency_ms, r.energy_mj,
            ),
        }
    }

    println!("\n## Derived claims — paper vs measured\n");
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    let mut ratios = Vec::new();
    for (style, pr, pd) in [
        (DesignStyle::ParallelSvm, 10.6, 2.02),
        (DesignStyle::ApproxParallelSvm, 5.4, 3.13),
        (DesignStyle::ParallelMlp, 3.46, 4.38),
    ] {
        let ratio = table.energy_improvement_over(style).unwrap_or(f64::NAN);
        let delta = table.accuracy_delta_over(style).unwrap_or(f64::NAN);
        ratios.push(ratio);
        println!("| energy improvement vs {} | {:.2}x | {:.2}x |", style.label(), pr, ratio);
        println!("| accuracy delta vs {} | +{:.2} pts | {:+.2} pts |", style.label(), pd, delta);
    }
    println!(
        "| average energy improvement | 6.50x | {:.2}x |",
        ratios.iter().sum::<f64>() / ratios.len() as f64
    );
    if let Some((peak, avg)) = table.ours_power_profile() {
        println!("| ours peak power | 22.9 mW | {peak:.1} mW |");
        println!("| ours average power | 13.58 mW | {avg:.2} mW |");
    }
    if let Some(e) = table.ours_average_energy() {
        println!("| ours average energy | 2.46 mJ | {e:.2} mJ |");
    }
    let f = table.battery_feasibility(&Battery::molex_30mw());
    println!(
        "| designs within Molex 30 mW | ours 5/5, SotA 4/13 | ours {}/{}, SotA {}/{} |",
        f.ours_ok, f.ours_total, f.sota_ok, f.sota_total
    );
    // The PenDigits exception: OvO with many support vectors out-scores OvR.
    if let (Some(ours), Some(sota)) = (
        table.row("PenDigits", DesignStyle::SequentialSvm),
        table.row("PenDigits", DesignStyle::ParallelSvm),
    ) {
        println!(
            "| PenDigits exception: accuracy ours vs SVM [2] (area of [2]) | 93.1% vs 97.8% | \
             {:.1}% vs {:.1}% ({:.1} cm2) |",
            ours.accuracy_pct, sota.accuracy_pct, sota.area_cm2
        );
    }
    // Per-dataset energy winners.
    println!("\n## Energy winner per (dataset, baseline)\n");
    println!("| dataset | vs SVM [2] | vs SVM [3]* | vs MLP [4]* |");
    println!("|---|---|---|---|");
    for ours in table.style_rows(DesignStyle::SequentialSvm) {
        let who = |style| {
            table
                .row(&ours.dataset, style)
                .map(|b| if ours.energy_mj < b.energy_mj { "ours" } else { "baseline" })
                .unwrap_or("-")
        };
        println!(
            "| {} | {} | {} | {} |",
            ours.dataset,
            who(DesignStyle::ParallelSvm),
            who(DesignStyle::ApproxParallelSvm),
            who(DesignStyle::ParallelMlp)
        );
    }
}
