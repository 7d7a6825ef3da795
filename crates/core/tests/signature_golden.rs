//! Signature values are pinned.
//!
//! The four signatures key every [`cleo_core::ModelStore`], every `CMS1`
//! snapshot on disk and the trainer's fit order, so a change to how they are
//! computed must keep every value bit-for-bit.  The constants below were
//! captured before the per-node logical-operator counts replaced the allocating
//! frequency walk; a changed signature fails here, by name, instead of
//! surfacing as a moved `pred_corr`.

use cleo_common::hash::StableHasher;
use cleo_core::{pipeline, signature_set, SignatureSet};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::types::{ClusterId, DayIndex, JobId};
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_optimizer::{HeuristicCostModel, OptimizerConfig};

fn meta(inputs: &[&str]) -> JobMeta {
    JobMeta {
        id: JobId(7),
        cluster: ClusterId(0),
        template: None,
        name: "golden".into(),
        normalized_inputs: inputs.iter().map(|s| s.to_string()).collect(),
        params: vec![0.25, 4.0],
        day: DayIndex(0),
        recurring: true,
    }
}

fn leaf(table: &str) -> PhysicalNode {
    PhysicalNode::new(PhysicalOpKind::Extract, table, vec![])
}

/// `Output(HashAggregate(Exchange(HashJoin(Filter(Extract), Extract))))`.
fn join_plan() -> PhysicalNode {
    let left = PhysicalNode::new(PhysicalOpKind::Filter, "ts>0", vec![leaf("clicks")]);
    let join = PhysicalNode::new(PhysicalOpKind::HashJoin, "user", vec![left, leaf("users")]);
    let exchange = PhysicalNode::new(PhysicalOpKind::Exchange, "region", vec![join]);
    let agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "region", vec![exchange]);
    PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg])
}

/// Three aggregate implementations over one sorted, projected scan: the
/// logical frequency of `Aggregate` is 3 while every physical kind appears once.
fn aggregate_plan() -> PhysicalNode {
    let project = PhysicalNode::new(PhysicalOpKind::Project, "a,b", vec![leaf("events")]);
    let local = PhysicalNode::new(PhysicalOpKind::LocalAggregate, "a", vec![project]);
    let sort = PhysicalNode::new(PhysicalOpKind::Sort, "a", vec![local]);
    let stream = PhysicalNode::new(PhysicalOpKind::StreamAggregate, "a", vec![sort]);
    let hash = PhysicalNode::new(PhysicalOpKind::HashAggregate, "b", vec![stream]);
    PhysicalNode::new(PhysicalOpKind::Process, "udf", vec![hash])
}

/// Twenty scans under one operator: more of one logical kind than most plans hold.
fn wide_plan() -> PhysicalNode {
    let scans = (0..20).map(|i| leaf(&format!("part{i}"))).collect();
    PhysicalNode::new(PhysicalOpKind::Process, "union", scans)
}

fn as_array(s: SignatureSet) -> [u64; 4] {
    [s.op_subgraph, s.op_subgraph_approx, s.op_input, s.operator]
}

#[test]
fn hand_built_plans_keep_their_signatures() {
    let join = join_plan();
    let aggregate = aggregate_plan();
    let wide = wide_plan();
    let two_inputs = meta(&["clicks_{date}", "users"]);

    let cases: [(&str, &PhysicalNode, JobMeta, [u64; 4]); 6] = [
        (
            "join root",
            &join,
            two_inputs.clone(),
            [
                0x1fe4_61a5_9849_92a2,
                0x480b_1638_3fb6_3517,
                0x0c59_8f91_d6e1_9e12,
                0xe983_34bd_037b_8840,
            ],
        ),
        (
            "join node",
            &join.children[0].children[0].children[0],
            two_inputs.clone(),
            [
                0xf203_e1a5_6dd4_7bc0,
                0x0dd9_c783_4682_cb14,
                0x899c_19e3_4161_fffc,
                0x874f_3296_4732_94ef,
            ],
        ),
        (
            "aggregate root",
            &aggregate,
            meta(&["events"]),
            [
                0x27db_f0bb_3c70_6f3b,
                0x822f_ef76_2192_dfb2,
                0x23d0_69d2_9986_d0b4,
                0xbf6d_3f24_f173_fba5,
            ],
        ),
        (
            "aggregate root, no inputs",
            &aggregate,
            meta(&[]),
            [
                0x27db_f0bb_3c70_6f3b,
                0x7bd8_68b8_e56d_263e,
                0xdd75_4278_1690_3b26,
                0xbf6d_3f24_f173_fba5,
            ],
        ),
        (
            "join root, one input",
            &join,
            meta(&["users"]),
            [
                0x1fe4_61a5_9849_92a2,
                0x93b4_dbbd_d237_8605,
                0xf381_b096_5081_0f05,
                0xe983_34bd_037b_8840,
            ],
        ),
        (
            "wide root",
            &wide,
            meta(&["part"]),
            [
                0xd05c_7d51_9f43_af9b,
                0xe864_4b38_a3cb_bcda,
                0x538d_0b87_7e18_b939,
                0xbf6d_3f24_f173_fba5,
            ],
        ),
    ];
    for (name, node, m, expected) in &cases {
        let got = as_array(signature_set(node, m));
        assert_eq!(got, *expected, "{name}: signatures moved: got {got:#018x?}");
    }

    // Input order and duplicates change no signature (the input template is a
    // set); the pinned value above therefore covers these too.
    let pinned = signature_set(&join, &two_inputs);
    for inputs in [
        &["users", "clicks_{date}"][..],
        &["users", "clicks_{date}", "users"][..],
        &["clicks_{date}", "clicks_{date}", "users"][..],
    ] {
        assert_eq!(signature_set(&join, &meta(inputs)), pinned, "{inputs:?}");
    }
}

#[test]
fn every_operator_of_a_generated_workload_keeps_its_signatures() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();

    let mut fold = StableHasher::new();
    let mut operators = 0usize;
    for job in log.jobs() {
        for node in job.plan.operators() {
            for word in as_array(signature_set(node, &job.plan.meta)) {
                fold.write_u64(word);
            }
            operators += 1;
        }
    }
    assert_eq!(
        (operators, fold.finish()),
        (821, 16_002_974_617_210_546_683),
        "the fold over every operator's SignatureSet moved"
    );
}
