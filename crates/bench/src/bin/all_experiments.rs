//! Run every figure/table driver in sequence.
//! Respects STELLAR_SCALE; use a smaller scale for a quick smoke pass.

use std::process::Command;

fn main() {
    let bins = [
        "fig2_hallucination",
        "tab_params",
        "fig5_tuning",
        "fig6_ruleset",
        "fig7_realapps",
        "fig8_ablation",
        "fig9_models",
        "tab_cost",
        "fig10_case",
        "fig_scaling",
        "tab_iterations",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    for bin in bins {
        println!("\n================================================================");
        println!("==== {bin}");
        println!("================================================================");
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
