//! Feature extraction (Tables 2 and 3 of the paper).
//!
//! Every learned model consumes the same feature vector, extracted from a physical
//! operator, a candidate partition count, and the job metadata:
//!
//! * **basic features** — input cardinality `I`, base cardinality `B`, output
//!   cardinality `C`, average row length `L`, partition count `P`, normalised inputs
//!   `IN`, and job parameters `PM`;
//! * **derived features** — the transformations and pairwise products of Table 3,
//!   grouped into input/output data volume, input×output interaction, and
//!   per-partition terms;
//! * two extra features used only by the operator-input model (Section 4.2): the
//!   number of logical operators in the subgraph `CL` and the depth of the operator
//!   `D`.
//!
//! All cardinality-derived features come from the **estimated** statistics: at
//! optimization time the actuals are unknown, and learned models must work from the
//! same inputs as the default cost model.

use std::sync::{Arc, OnceLock};

use cleo_common::hash;
use cleo_engine::physical::{JobMeta, PhysicalNode};

/// Names of the features produced by [`extract_features`], in order.
/// Borrows the static table — no allocation per call.
pub fn feature_names() -> &'static [&'static str] {
    FEATURE_NAMES
}

/// The feature names as a shared `String` table (what [`cleo_mlkit::Dataset`]
/// stores).  Materialised once per process and `Arc`-shared by every
/// per-signature fit, so training thousands of models clones no name strings.
pub fn feature_name_strings() -> Arc<[String]> {
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    Arc::clone(NAMES.get_or_init(|| FEATURE_NAMES.iter().map(|s| s.to_string()).collect()))
}

/// The fixed feature ordering.
pub const FEATURE_NAMES: &[&str] = &[
    // Basic features (Table 2).
    "I",
    "B",
    "C",
    "L",
    "P",
    "IN",
    "PM1",
    "PM2",
    // Derived: input/output data volume.
    "sqrt(I)",
    "sqrt(B)",
    "sqrt(C)",
    "L*I",
    "L*B",
    "L*log(B)",
    "L*log(I)",
    "L*log(C)",
    // Derived: input × output.
    "B*C",
    "I*C",
    "B*log(C)",
    "I*log(C)",
    "log(I)*log(C)",
    "log(B)*log(C)",
    // Derived: per-partition.
    "I/P",
    "C/P",
    "B/P",
    "I*L/P",
    "C*L/P",
    "sqrt(I)/P",
    "sqrt(C)/P",
    "log(I)/P",
    // Operator-input extras.
    "CL",
    "D",
];

/// Number of features.
pub const fn feature_count() -> usize {
    FEATURE_NAMES.len()
}

fn safe_log(x: f64) -> f64 {
    (1.0 + x.max(0.0)).ln()
}

/// Encode the normalised input names into a stable numeric feature in `[0, 1]`.
///
/// The encoding depends only on the job metadata, so sweep-shaped callers hoist
/// it out of the per-candidate loop via [`input_encoding`] +
/// [`extract_features_with_encoding`].
pub fn input_encoding(meta: &JobMeta) -> f64 {
    let inputs = &meta.normalized_inputs;
    encoding_from_order_hash(inputs, input_order_hash(inputs))
}

/// Hash of the normalised input names in the order the job lists them (the
/// signatures hash them as a set; this is the one place order counts).
pub(crate) fn input_order_hash(inputs: &[String]) -> u64 {
    let mut h = hash::StableHasher::new();
    for name in inputs {
        h.write_str(name);
    }
    h.finish()
}

/// [`input_encoding`] from an [`input_order_hash`] already in hand.
pub(crate) fn encoding_from_order_hash(inputs: &[String], order_hash: u64) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    (order_hash % 10_000) as f64 / 10_000.0
}

/// Extract the feature vector for one operator at a candidate partition count.
pub fn extract_features(node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> Vec<f64> {
    let mut out = vec![0.0; feature_count()];
    extract_features_into(node, partitions, meta, &mut out);
    out
}

/// Extract the feature vector into a caller-provided slice of length
/// [`feature_count`] — the allocation-free path the costing hot loop uses (the
/// slice is a row of a reused `FeatureMatrix`).  Values are written with exactly
/// the expressions of the original allocating extractor, so the two paths are
/// bit-identical; `CL`/`D` read the node's cached subtree summary instead of
/// re-walking the subtree.
pub fn extract_features_into(
    node: &PhysicalNode,
    partitions: usize,
    meta: &JobMeta,
    dst: &mut [f64],
) {
    extract_features_with_encoding(node, partitions, meta, input_encoding(meta), dst);
}

/// Like [`extract_features_into`] with the input encoding precomputed by
/// [`input_encoding`] — sweeps hash the job's input names once instead of once
/// per candidate row.  Identical output for `encoding == input_encoding(meta)`.
pub fn extract_features_with_encoding(
    node: &PhysicalNode,
    partitions: usize,
    meta: &JobMeta,
    encoding: f64,
    dst: &mut [f64],
) {
    assert_eq!(dst.len(), feature_count(), "feature slice width mismatch");
    let i = node.est.input_cardinality.max(0.0);
    let b = node.est.base_cardinality.max(0.0);
    let c = node.est.output_cardinality.max(0.0);
    let l = node.est.avg_row_bytes.max(1.0);
    let p = partitions.max(1) as f64;
    let inp = encoding;
    let pm1 = meta.params.first().copied().unwrap_or(0.0);
    let pm2 = meta.params.get(1).copied().unwrap_or(0.0);
    let cl = node.node_count() as f64;
    let d = node.depth() as f64;
    // Each transcendental is evaluated once and reused (the seed recomputed
    // `log` up to 12× and `sqrt` 5× per row); same inputs produce the same
    // doubles, so the output stays bit-identical.
    let sqrt_i = i.sqrt();
    let sqrt_b = b.sqrt();
    let sqrt_c = c.sqrt();
    let log_i = safe_log(i);
    let log_b = safe_log(b);
    let log_c = safe_log(c);

    let values = [
        i,
        b,
        c,
        l,
        p,
        inp,
        pm1,
        pm2,
        sqrt_i,
        sqrt_b,
        sqrt_c,
        l * i,
        l * b,
        l * log_b,
        l * log_i,
        l * log_c,
        b * c,
        i * c,
        b * log_c,
        i * log_c,
        log_i * log_c,
        log_b * log_c,
        i / p,
        c / p,
        b / p,
        i * l / p,
        c * l / p,
        sqrt_i / p,
        sqrt_c / p,
        log_i / p,
        cl,
        d,
    ];
    dst.copy_from_slice(&values);
}

/// Sweep-hoisted feature extraction: within one candidate sweep only the
/// partition count varies, so every cardinality-derived value — including the
/// six transcendentals — is computed once into a template row and each
/// candidate just rewrites the nine `P`-dependent slots.
///
/// The template is extracted at `P = 1`, which makes the `…/P` slots hold
/// exactly their numerators (`x / 1.0 == x` bitwise), so the per-candidate
/// rewrite `template[idx] / p` reproduces the full extractor's `x / p` bit for
/// bit.  [`SweepFeatures::write_row`] is therefore bit-identical to
/// [`extract_features_with_encoding`] for every partition count.
#[derive(Debug, Clone)]
pub struct SweepFeatures {
    template: [f64; feature_count()],
}

/// Feature slot holding the raw partition count `P`.
const P_SLOT: usize = 4;
/// The contiguous run of `…/P` feature slots.
const PER_PARTITION_SLOTS: std::ops::RangeInclusive<usize> = 22..=29;

impl SweepFeatures {
    /// Hoist the sweep-invariant features of one operator (`encoding` from
    /// [`input_encoding`]).
    pub fn new(node: &PhysicalNode, meta: &JobMeta, encoding: f64) -> SweepFeatures {
        debug_assert_eq!(FEATURE_NAMES[P_SLOT], "P");
        debug_assert!(PER_PARTITION_SLOTS
            .map(|idx| FEATURE_NAMES[idx])
            .all(|n| n.contains("/P")));
        let mut template = [0.0; feature_count()];
        extract_features_with_encoding(node, 1, meta, encoding, &mut template);
        SweepFeatures { template }
    }

    /// Write one candidate's feature row: copy the template, then fill `P` and
    /// the eight per-partition slots.
    pub fn write_row(&self, partitions: usize, dst: &mut [f64]) {
        dst.copy_from_slice(&self.template);
        let p = partitions.max(1) as f64;
        dst[P_SLOT] = p;
        for idx in PER_PARTITION_SLOTS {
            dst[idx] = self.template[idx] / p;
        }
    }
}

/// Indices of the features that involve the partition count `P` in a `1/P` term
/// (used by the analytical partition-coefficient extraction).
pub fn inverse_partition_feature_indices() -> Vec<usize> {
    FEATURE_NAMES
        .iter()
        .enumerate()
        .filter(|(_, n)| n.contains("/P"))
        .map(|(i, _)| i)
        .collect()
}

/// Index of the raw partition-count feature `P`.
pub fn partition_feature_index() -> usize {
    FEATURE_NAMES
        .iter()
        .position(|&n| n == "P")
        .expect("P feature exists")
}

/// Aggregate normalised feature weights across a set of linear models — the quantity
/// plotted in Figures 5, 6 and 16: `nw_i = Σ_n |w_in| / Σ_k Σ_n |w_kn|`.
pub fn normalized_weights(weight_vectors: &[Vec<f64>]) -> Vec<f64> {
    if weight_vectors.is_empty() {
        return vec![0.0; feature_count()];
    }
    let k = weight_vectors[0].len();
    let mut sums = vec![0.0; k];
    for w in weight_vectors {
        for (j, v) in w.iter().enumerate().take(k) {
            sums[j] += v.abs();
        }
    }
    let total: f64 = sums.iter().sum();
    if total <= 0.0 {
        return vec![0.0; k];
    }
    sums.iter().map(|s| s / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "feat".into(),
            normalized_inputs: vec!["clicks_{date}".into()],
            params: vec![0.25, 0.75, 3.0],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn node() -> PhysicalNode {
        let mut child = PhysicalNode::new(PhysicalOpKind::Extract, "clicks", vec![]);
        child.est = OpStats {
            input_cardinality: 1e6,
            base_cardinality: 1e6,
            output_cardinality: 1e6,
            avg_row_bytes: 80.0,
        };
        let mut n = PhysicalNode::new(PhysicalOpKind::Filter, "pred", vec![child]);
        n.est = OpStats {
            input_cardinality: 1e6,
            base_cardinality: 1e6,
            output_cardinality: 2e5,
            avg_row_bytes: 80.0,
        };
        n
    }

    #[test]
    fn feature_vector_matches_name_count_and_is_finite() {
        let f = extract_features(&node(), 16, &meta());
        assert_eq!(f.len(), feature_count());
        assert!(f.iter().all(|v| v.is_finite()));
        // Basic features in the right slots.
        assert_eq!(f[0], 1e6); // I
        assert_eq!(f[2], 2e5); // C
        assert_eq!(f[3], 80.0); // L
        assert_eq!(f[4], 16.0); // P
        assert_eq!(f[6], 0.25); // PM1
                                // CL and D reflect the two-node subgraph.
        assert_eq!(f[feature_count() - 2], 2.0);
        assert_eq!(f[feature_count() - 1], 2.0);
    }

    #[test]
    fn partition_features_scale_inversely_with_p() {
        let f1 = extract_features(&node(), 1, &meta());
        let f10 = extract_features(&node(), 10, &meta());
        for idx in inverse_partition_feature_indices() {
            assert!(
                (f1[idx] - 10.0 * f10[idx]).abs() < 1e-6 * f1[idx].abs().max(1.0),
                "feature {} should scale as 1/P",
                FEATURE_NAMES[idx]
            );
        }
        assert_eq!(f10[partition_feature_index()], 10.0);
    }

    #[test]
    fn input_encoding_is_stable_and_distinguishes_inputs() {
        let m1 = meta();
        let mut m2 = meta();
        m2.normalized_inputs = vec!["other_input".into()];
        let f1a = extract_features(&node(), 8, &m1);
        let f1b = extract_features(&node(), 8, &m1);
        let f2 = extract_features(&node(), 8, &m2);
        assert_eq!(f1a[5], f1b[5]);
        assert_ne!(f1a[5], f2[5]);
    }

    #[test]
    fn normalized_weights_sum_to_one() {
        let w = vec![vec![1.0, -2.0, 0.0], vec![0.5, 0.0, 0.5]];
        let nw = normalized_weights(&w);
        assert_eq!(nw.len(), 3);
        assert!((nw.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(nw[1] > nw[2]);
        assert!(normalized_weights(&[]).iter().all(|&v| v == 0.0));
    }
}
