//! Recurring-job templates.
//!
//! Section 2.2: "a recurring job consists of a script template that accepts different
//! input parameters ... each instance runs on different input data, parameters and
//! \[has\] potentially different statements", and Section 3.1: recurring jobs across a
//! cluster share *common subexpressions* because they read the same upstream datasets.
//!
//! This module models both properties.  Templates are grouped into **families**; every
//! template in a family starts from the same prefix fragment (scan → filter →
//! optionally a UDF processor over a shared input), so the prefix subgraph recurs
//! across many distinct jobs — the structure the operator-subgraph model exploits.
//! Each template also has *systematic* cardinality-estimation errors (the estimated
//! selectivities differ from the actual ones by per-template factors that persist
//! across instances), which is exactly the regime in which learned per-template
//! adjustments generalise.

use cleo_common::rng::DetRng;

use crate::catalog::{Catalog, ColumnDef, TableDef};
use crate::logical::LogicalNode;
use crate::types::TemplateId;

/// The structural recipe of one recurring template.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurringTemplate {
    /// Template id (stable across days).
    pub id: TemplateId,
    /// Template (script) name.
    pub name: String,
    /// Family id: templates with the same family share their prefix subexpression.
    pub family: u64,
    /// Baseline plan with the template's estimated and baseline-actual selectivities.
    pub base_plan: LogicalNode,
    /// Tables read by the plan.
    pub input_tables: Vec<String>,
    /// How many instances of this template are submitted per day.
    pub instances_per_day: usize,
}

/// Hidden, per-family systematic estimation error factors.  Estimated selectivities
/// are generated first; actuals are the estimates multiplied by these factors (values
/// far from 1.0 mean the optimizer's estimate is badly off — systematically, the same
/// way, every day).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyFactors {
    /// Multiplicative error of the prefix filter's selectivity estimate.
    pub filter_error: f64,
    /// Multiplicative error of join fanout estimates.
    pub join_error: f64,
    /// Multiplicative error of aggregate group-count estimates.
    pub agg_error: f64,
    /// Hidden per-row cost factor of the family's UDF processor.
    pub udf_cost_factor: f64,
}

impl FamilyFactors {
    /// Draw a family's hidden factors.
    pub fn draw(rng: &mut DetRng) -> FamilyFactors {
        FamilyFactors {
            // Estimation errors span roughly 0.05×–20×, matching the order-of-magnitude
            // errors reported for production estimates.
            filter_error: rng.lognormal_noise(1.2),
            join_error: rng.lognormal_noise(0.9),
            agg_error: rng.lognormal_noise(1.0),
            // UDF per-row costs span ~0.2×–60× of a plain filter (log-uniform).
            udf_cost_factor: (rng.uniform(0.2f64.ln(), 60.0f64.ln())).exp(),
        }
    }
}

/// Create the pool of input tables for one cluster.
///
/// Table sizes are log-uniform between ~10⁵ and ~10⁹ rows, with a handful of "hot"
/// upstream datasets that most templates read (giving the workload its shared-input
/// structure).
pub fn build_cluster_tables(n_tables: usize, rng: &mut DetRng) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..n_tables.max(1) {
        let magnitude = rng.uniform(5.0, 9.0);
        let rows = 10f64.powf(magnitude);
        let n_cols = rng.int_range(3, 10) as usize;
        let columns: Vec<ColumnDef> = (0..n_cols)
            .map(|c| {
                ColumnDef::new(
                    format!("c{c}"),
                    rng.uniform(4.0, 64.0),
                    rng.uniform(0.001, 1.0),
                )
            })
            .collect();
        let partitions = ((rows / 4e6).ceil() as usize).clamp(1, 500);
        catalog.add_table(TableDef::new(
            format!("dataset_{i:03}"),
            columns,
            rows,
            partitions,
        ));
    }
    catalog
}

/// Build the shared prefix fragment of a family: scan → filter → optional UDF.
pub fn family_prefix(
    family: u64,
    table: &str,
    factors: &FamilyFactors,
    rng: &mut DetRng,
) -> LogicalNode {
    let est_sel = rng.uniform(0.01, 0.6);
    let actual_sel = (est_sel * factors.filter_error).clamp(1e-6, 1.0);
    let mut node =
        LogicalNode::get(table).filter(format!("family{family}_pred"), est_sel, actual_sel);
    if rng.chance(0.6) {
        let est_udf_sel = rng.uniform(0.2, 1.0);
        let actual_udf_sel = (est_udf_sel * rng.lognormal_noise(0.4)).clamp(1e-6, 2.0);
        node = node.process(
            format!("Udf_F{family}"),
            est_udf_sel,
            actual_udf_sel,
            factors.udf_cost_factor,
        );
    }
    node
}

/// Build one template's full plan on top of its family prefix.
pub fn build_template_plan(
    prefix: &LogicalNode,
    family: u64,
    template_index: usize,
    catalog: &Catalog,
    factors: &FamilyFactors,
    rng: &mut DetRng,
) -> (LogicalNode, Vec<String>) {
    let mut plan = prefix.clone();
    let mut inputs = plan.input_tables();

    // Optional join against a (usually smaller) dimension table.
    if rng.chance(0.65) {
        let names: Vec<String> = catalog.table_names().map(|s| s.to_string()).collect();
        let dim = names[rng.index(names.len())].clone();
        inputs.push(dim.clone());
        let mut right = LogicalNode::get(&dim);
        if rng.chance(0.5) {
            let est = rng.uniform(0.05, 0.8);
            let actual = (est * rng.lognormal_noise(0.5)).clamp(1e-6, 1.0);
            right = right.filter(format!("dim_pred_f{family}_{template_index}"), est, actual);
        }
        let est_fanout = rng.uniform(0.3, 1.5);
        let actual_fanout = (est_fanout * factors.join_error).max(1e-6);
        plan = plan.join(
            right,
            vec![format!("key{}", rng.int_range(0, 3))],
            est_fanout,
            actual_fanout,
        );
    }

    // Optional projection.
    if rng.chance(0.5) {
        plan = plan.project(rng.uniform(0.3, 0.9));
    }

    // Aggregation is very common in analytical recurring jobs.
    if rng.chance(0.8) {
        let est_groups = rng.uniform(1e-4, 0.2);
        let actual_groups = (est_groups * factors.agg_error).clamp(1e-7, 1.0);
        plan = plan.aggregate(
            vec![format!("g{}", rng.int_range(0, 4))],
            est_groups,
            actual_groups,
        );
    }

    // Occasional ordered output (top-k style reports).
    if rng.chance(0.3) {
        plan = plan.sort(vec!["g0".into()]);
    }

    let sink = format!("output_f{family}_t{template_index}");
    (plan.output(sink), inputs)
}

/// Per-instance variation of a template plan: jitter the *actual* selectivities (data
/// drift between instances) while leaving the *estimates* untouched (the optimizer's
/// statistics are stale), and couple part of the drift to the job parameters so that
/// parameters carry real signal.
pub fn instantiate_plan(base: &LogicalNode, params: &[f64], rng: &mut DetRng) -> LogicalNode {
    use crate::logical::LogicalOp;
    let mut plan = base.clone();
    let param_shift = 0.8 + 0.4 * params.first().copied().unwrap_or(0.5);
    fn walk(node: &mut LogicalNode, param_shift: f64, rng: &mut DetRng) {
        match &mut node.op {
            LogicalOp::Filter {
                actual_selectivity, ..
            } => {
                *actual_selectivity =
                    (*actual_selectivity * param_shift * rng.lognormal_noise(0.05))
                        .clamp(1e-7, 1.0);
            }
            LogicalOp::Join { actual_fanout, .. } => {
                *actual_fanout = (*actual_fanout * rng.lognormal_noise(0.05)).max(1e-7);
            }
            LogicalOp::Aggregate {
                actual_group_fraction,
                ..
            } => {
                *actual_group_fraction =
                    (*actual_group_fraction * rng.lognormal_noise(0.05)).clamp(1e-7, 1.0);
            }
            LogicalOp::Process {
                actual_selectivity, ..
            } => {
                *actual_selectivity = (*actual_selectivity * rng.lognormal_noise(0.05)).max(1e-7);
            }
            _ => {}
        }
        for c in &mut node.children {
            walk(c, param_shift, rng);
        }
    }
    walk(&mut plan, param_shift, rng);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_tables_have_varied_sizes() {
        let mut rng = DetRng::new(1);
        let catalog = build_cluster_tables(25, &mut rng);
        assert_eq!(catalog.len(), 25);
        let sizes: Vec<f64> = catalog
            .table_names()
            .map(|n| catalog.table(n).unwrap().row_count)
            .collect();
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 100.0, "sizes should span orders of magnitude");
    }

    #[test]
    fn family_prefix_is_deterministic_per_seed() {
        let mut rng_a = DetRng::new(7);
        let mut rng_b = DetRng::new(7);
        let factors = FamilyFactors {
            filter_error: 2.0,
            join_error: 1.0,
            agg_error: 1.0,
            udf_cost_factor: 5.0,
        };
        let a = family_prefix(1, "dataset_000", &factors, &mut rng_a);
        let b = family_prefix(1, "dataset_000", &factors, &mut rng_b);
        assert_eq!(a, b);
    }

    #[test]
    fn template_plan_ends_in_output_and_reads_prefix_table() {
        let mut rng = DetRng::new(3);
        let catalog = build_cluster_tables(10, &mut rng);
        let factors = FamilyFactors::draw(&mut rng);
        let prefix = family_prefix(0, "dataset_001", &factors, &mut rng);
        let (plan, inputs) = build_template_plan(&prefix, 0, 0, &catalog, &factors, &mut rng);
        assert_eq!(plan.op.name(), "Output");
        assert!(inputs.contains(&"dataset_001".to_string()));
        assert!(plan.node_count() >= 3);
    }

    #[test]
    fn instantiation_changes_actuals_but_not_estimates() {
        use crate::logical::LogicalOp;
        let mut rng = DetRng::new(5);
        let base = LogicalNode::get("t").filter("p", 0.3, 0.1).output("o");
        let inst = instantiate_plan(&base, &[0.9], &mut rng);
        fn find_filter(node: &LogicalNode) -> Option<(f64, f64)> {
            if let LogicalOp::Filter {
                est_selectivity,
                actual_selectivity,
                ..
            } = &node.op
            {
                return Some((*est_selectivity, *actual_selectivity));
            }
            node.children.iter().find_map(find_filter)
        }
        let (est_b, act_b) = find_filter(&base).unwrap();
        let (est_i, act_i) = find_filter(&inst).unwrap();
        assert_eq!(est_b, est_i, "estimates must stay fixed across instances");
        assert_ne!(act_b, act_i, "actuals drift between instances");
    }

    #[test]
    fn family_factors_span_wide_error_range() {
        let mut rng = DetRng::new(11);
        let factors: Vec<FamilyFactors> = (0..200).map(|_| FamilyFactors::draw(&mut rng)).collect();
        let max_err = factors
            .iter()
            .map(|f| f.filter_error)
            .fold(0.0f64, f64::max);
        let min_err = factors
            .iter()
            .map(|f| f.filter_error)
            .fold(f64::INFINITY, f64::min);
        assert!(max_err > 2.0, "some families over-estimate heavily");
        assert!(min_err < 0.5, "some families under-estimate heavily");
        assert!(factors.iter().all(|f| f.udf_cost_factor >= 0.2));
        let max_udf = factors
            .iter()
            .map(|f| f.udf_cost_factor)
            .fold(0.0f64, f64::max);
        assert!(
            max_udf > 10.0,
            "some UDFs are far more expensive than relational operators"
        );
    }
}
