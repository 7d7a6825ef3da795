//! Experiment runners: one per table/figure of the paper.
//!
//! Each runner consumes the shared [`ExperimentContext`] and returns the
//! reproduced table/series as rendered text (the `repro` binary prints
//! it and writes a copy to `target/experiments/<id>.txt`).  The experiment ids
//! are the paper's figure and table numbers, plus `overheads` and four
//! runners of this reproduction's own (`feedback_loop`, `sharded_serving`,
//! `chaos`, `scenario`).

pub mod accuracy;
pub mod chaos;
pub mod features;
pub mod feedback;
pub mod performance;
pub mod resources;
pub mod scenario;
pub mod sharded;
pub mod workload;

use cleo_common::Result;

use crate::context::ExperimentContext;

/// All experiment ids, in the order they appear in the paper.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "tab1",
    "fig5",
    "fig6",
    "tab4",
    "tab5",
    "tab6",
    "fig7",
    "fig8c",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tab7",
    "tab8",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "overheads",
    "feedback_loop",
    "sharded_serving",
    "chaos",
    "scenario",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, ctx: &ExperimentContext) -> Result<String> {
    match id {
        "fig1" => accuracy::fig1(ctx),
        "fig2" => workload::fig2(ctx),
        "fig3" => workload::fig3(ctx),
        "tab1" => features::tab1(ctx),
        "fig5" => features::fig5(ctx),
        "fig6" => features::fig6(ctx),
        "tab4" => accuracy::tab4(ctx),
        "tab5" => accuracy::tab5(ctx),
        "tab6" => accuracy::tab6(ctx),
        "fig7" => accuracy::fig7(ctx),
        "fig8c" => resources::fig8c(ctx),
        "fig9" => workload::fig9(ctx),
        "fig10" => workload::fig10(ctx),
        "fig11" => accuracy::fig11(ctx),
        "fig12" => accuracy::fig12(ctx, true),
        "fig13" => accuracy::fig12(ctx, false),
        "tab7" => accuracy::tab7(ctx),
        "tab8" => accuracy::tab8(ctx),
        "fig14" => accuracy::fig14(ctx),
        "fig15" => accuracy::fig15(ctx),
        "fig16" => features::fig16(ctx),
        "fig17" => resources::fig17(ctx),
        "fig18" => features::fig18(ctx),
        "fig19" => performance::fig19(ctx),
        "fig20" => performance::fig20(ctx),
        "overheads" => performance::overheads(ctx),
        "feedback_loop" => feedback::feedback_loop(ctx),
        "sharded_serving" => sharded::sharded_serving(ctx),
        "chaos" => chaos::chaos(ctx),
        "scenario" => scenario::scenario(ctx),
        other => Err(cleo_common::CleoError::Config(format!(
            "unknown experiment id '{other}'"
        ))),
    }
}
