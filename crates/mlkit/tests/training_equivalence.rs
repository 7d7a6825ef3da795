//! Training kernels against their reference implementations.
//!
//! The tree learners search splits over presorted feature orders (sorted once
//! per fit, or counting-sorted from per-feature ranks in the ensembles) and
//! the elastic net descends over a column-major copy of its standardised
//! features.  Both are meant to reproduce, bit for bit, the straightforward
//! algorithms kept below as oracles: a tree that copies and re-sorts its rows
//! for every candidate feature at every node, and a coordinate descent that
//! reads a row-major matrix.  Over seeded datasets covering one to 300 rows,
//! one to 32 features, two-valued and constant columns, mixed signed zeros and
//! duplicate rows, every fitted node and every weight must match exactly.

use cleo_common::rng::DetRng;
use cleo_mlkit::decision_tree::{DecisionTreeConfig, TreeNode};
use cleo_mlkit::elastic_net::ElasticNetConfig;
use cleo_mlkit::gbt::{FastTreeConfig, FastTreeRegressor};
use cleo_mlkit::loss::TargetTransform;
use cleo_mlkit::random_forest::{RandomForestConfig, RandomForestRegressor};
use cleo_mlkit::scaler::StandardScaler;
use cleo_mlkit::{Dataset, DecisionTreeRegressor, ElasticNet, Regressor};

// ---------------------------------------------------------------------------
// Reference: CART with a per-node sort
// ---------------------------------------------------------------------------

fn reference_tree(data: &Dataset, targets: &[f64], config: &DecisionTreeConfig) -> Vec<TreeNode> {
    let mut nodes = Vec::new();
    let indices: Vec<usize> = (0..data.n_rows()).collect();
    let mut rng = DetRng::new(config.seed);
    reference_node(data, targets, config, &indices, 0, &mut rng, &mut nodes);
    nodes
}

fn reference_node(
    data: &Dataset,
    targets: &[f64],
    config: &DecisionTreeConfig,
    indices: &[usize],
    depth: usize,
    rng: &mut DetRng,
    nodes: &mut Vec<TreeNode>,
) -> usize {
    let mean: f64 = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
    let stop = depth >= config.max_depth
        || indices.len() < config.min_samples_split
        || indices.len() < 2 * config.min_samples_leaf;
    if !stop {
        if let Some((feature, threshold)) = reference_split(data, targets, config, indices, rng) {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.row(i)[feature] <= threshold);
            if left_idx.len() >= config.min_samples_leaf
                && right_idx.len() >= config.min_samples_leaf
            {
                let my_idx = nodes.len();
                nodes.push(TreeNode::Leaf { value: mean });
                let left = reference_node(data, targets, config, &left_idx, depth + 1, rng, nodes);
                let right =
                    reference_node(data, targets, config, &right_idx, depth + 1, rng, nodes);
                nodes[my_idx] = TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return my_idx;
            }
        }
    }
    nodes.push(TreeNode::Leaf { value: mean });
    nodes.len() - 1
}

fn reference_split(
    data: &Dataset,
    targets: &[f64],
    config: &DecisionTreeConfig,
    indices: &[usize],
    rng: &mut DetRng,
) -> Option<(usize, f64)> {
    let n_features = data.n_cols();
    let candidate_features: Vec<usize> = match config.max_features {
        Some(k) if k < n_features => rng.sample_indices(n_features, k),
        _ => (0..n_features).collect(),
    };
    let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
    let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
    let n = indices.len() as f64;
    let parent_sse = total_sq - total_sum * total_sum / n;

    let mut best: Option<(usize, f64, f64)> = None;
    for &f in &candidate_features {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_by(|&a, &b| {
            data.row(a)[f]
                .partial_cmp(&data.row(b)[f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (k, &i) in sorted.iter().enumerate().take(sorted.len() - 1) {
            let t = targets[i];
            left_sum += t;
            left_sq += t * t;
            let next_val = data.row(sorted[k + 1])[f];
            let cur_val = data.row(i)[f];
            if next_val <= cur_val {
                continue;
            }
            let nl = (k + 1) as f64;
            let nr = n - nl;
            if (nl as usize) < config.min_samples_leaf || (nr as usize) < config.min_samples_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse =
                (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((f, 0.5 * (cur_val + next_val), sse));
            }
        }
    }
    match best {
        Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t)),
        _ => None,
    }
}

/// The node walk: `<=` goes left.
fn walk(nodes: &[TreeNode], row: &[f64]) -> f64 {
    let mut idx = 0;
    loop {
        match nodes[idx] {
            TreeNode::Leaf { value } => return value,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                idx = if row[feature] <= threshold {
                    left
                } else {
                    right
                }
            }
        }
    }
}

fn reference_forest(data: &Dataset, config: &RandomForestConfig) -> Vec<Vec<TreeNode>> {
    let n = data.n_rows();
    let transformed = config.target_transform.forward_all(data.targets());
    let max_features = config
        .max_features
        .unwrap_or_else(|| ((data.n_cols() as f64).sqrt().ceil() as usize).max(1));
    let mut rng = DetRng::new(config.seed);
    (0..config.n_trees)
        .map(|t| {
            let boot: Vec<usize> = (0..n).map(|_| rng.index(n)).collect();
            let sample = data.select_rows(&boot);
            let sample_targets: Vec<f64> = boot.iter().map(|&i| transformed[i]).collect();
            let tree_config = DecisionTreeConfig {
                max_depth: config.max_depth,
                min_samples_leaf: config.min_samples_leaf,
                min_samples_split: 2 * config.min_samples_leaf.max(1),
                max_features: Some(max_features),
                seed: config.seed.wrapping_add(t as u64 * 7919),
                target_transform: TargetTransform::Identity,
            };
            reference_tree(&sample, &sample_targets, &tree_config)
        })
        .collect()
}

/// `(base prediction, stage trees)` of a reference MART fit.
fn reference_fasttree(data: &Dataset, config: &FastTreeConfig) -> (f64, Vec<Vec<TreeNode>>) {
    let n = data.n_rows();
    let y = config.target_transform.forward_all(data.targets());
    let mut rng = DetRng::new(config.seed);
    let base = y.iter().sum::<f64>() / n as f64;
    let mut current = vec![base; n];
    let sample_size = ((n as f64) * config.subsample).round().max(1.0) as usize;
    let mut trees = Vec::new();
    for t in 0..config.n_trees {
        let residuals: Vec<f64> = y.iter().zip(&current).map(|(t, p)| t - p).collect();
        let rows: Vec<usize> = if sample_size < n {
            rng.sample_indices(n, sample_size)
        } else {
            (0..n).collect()
        };
        let sample = data.select_rows(&rows);
        let sample_residuals: Vec<f64> = rows.iter().map(|&i| residuals[i]).collect();
        let tree_config = DecisionTreeRegressor::ensemble_base(
            config.max_depth,
            config.min_samples_leaf,
            config.seed.wrapping_add(1 + t as u64 * 6151),
        )
        .config()
        .clone();
        let nodes = reference_tree(&sample, &sample_residuals, &tree_config);
        for (i, c) in current.iter_mut().enumerate() {
            *c += config.learning_rate * walk(&nodes, data.row(i));
        }
        trees.push(nodes);
    }
    (base, trees)
}

// ---------------------------------------------------------------------------
// Reference: row-major coordinate descent
// ---------------------------------------------------------------------------

fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// `(raw weights, intercept)` of the elastic-net descent over the row-major
/// standardised matrix.
fn reference_enet(
    data: &Dataset,
    config: &ElasticNetConfig,
    warm_start: Option<&[f64]>,
) -> (Vec<f64>, f64) {
    let n = data.n_rows();
    let d = data.n_cols();
    let y: Vec<f64> = config.target_transform.forward_all(data.targets());
    let scaler = StandardScaler::fit(data);
    let std_data = scaler.transform(data);
    let y_mean = if config.fit_intercept {
        y.iter().sum::<f64>() / n as f64
    } else {
        0.0
    };
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    let mut col_sq = vec![0.0; d];
    for i in 0..n {
        for (j, &v) in std_data.row(i).iter().enumerate() {
            col_sq[j] += v * v;
        }
    }
    let alpha = config.alpha.max(0.0);
    let l1 = alpha * config.l1_ratio;
    let l2 = alpha * (1.0 - config.l1_ratio);
    let nf = n as f64;
    let mut w = vec![0.0; d];
    if let Some(seed) = warm_start.filter(|s| s.len() == d) {
        w = scaler.scale_weights(seed);
        for (j, wj) in w.iter_mut().enumerate() {
            if col_sq[j] < 1e-12 {
                *wj = 0.0;
            }
        }
    }
    let mut residual = yc;
    if w.iter().any(|&wj| wj != 0.0) {
        for (i, r) in residual.iter_mut().enumerate() {
            let row = std_data.row(i);
            *r -= row.iter().zip(&w).map(|(x, wj)| x * wj).sum::<f64>();
        }
    }
    for _ in 0..config.max_iter {
        let mut max_update = 0.0f64;
        for j in 0..d {
            if col_sq[j] < 1e-12 {
                continue;
            }
            let mut rho = 0.0;
            for (i, r) in residual.iter().enumerate() {
                let xij = std_data.row(i)[j];
                rho += xij * (r + xij * w[j]);
            }
            rho /= nf;
            let denom = col_sq[j] / nf + l2;
            let new_w = soft_threshold(rho, l1) / denom;
            let delta = new_w - w[j];
            if delta != 0.0 {
                for (i, r) in residual.iter_mut().enumerate() {
                    *r -= std_data.row(i)[j] * delta;
                }
                w[j] = new_w;
            }
            max_update = max_update.max(delta.abs());
        }
        if max_update < config.tol {
            break;
        }
    }
    let (raw_w, raw_b) = scaler.unscale_weights(&w, y_mean);
    let intercept = if config.fit_intercept {
        raw_b
    } else {
        raw_b - y_mean
    };
    (raw_w, intercept)
}

// ---------------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------------

/// `n` rows of `d` features.  Column `j` cycles through five kinds —
/// continuous, small-integer (many ties), two-valued, constant, and a mix of
/// `-0.0`, `+0.0` and a few other values — and every seventh row after the
/// first few repeats an earlier row outright.  Targets are positive, noisy and
/// nonlinear in the first columns.
fn dataset(seed: u64, n: usize, d: usize) -> Dataset {
    let mut rng = DetRng::new(seed);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        if i >= 3 && i % 7 == 0 {
            let copy = rows[rng.index(i)].clone();
            rows.push(copy);
            continue;
        }
        let row = (0..d)
            .map(|j| match (j + seed as usize) % 5 {
                0 => rng.uniform(-50.0, 50.0),
                1 => rng.index(6) as f64,
                2 => {
                    if rng.index(2) == 0 {
                        -2.5
                    } else {
                        4.0
                    }
                }
                3 => 1.5,
                _ => match rng.index(4) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    _ => -1.0,
                },
            })
            .collect();
        rows.push(row);
    }
    let targets = rows
        .iter()
        .map(|r| {
            let a = r[0];
            let b = r.get(1).copied().unwrap_or(1.0);
            let base = if a > 0.0 {
                3.0 * a.abs() + b
            } else {
                a.abs() * 0.5 + 2.0
            };
            1.0 + base * rng.lognormal_noise(0.2)
        })
        .collect();
    let names = (0..d).map(|j| format!("x{j}")).collect();
    Dataset::from_rows(names, rows, targets).unwrap()
}

/// `(seed, rows, features)` of every dataset the properties run over.
fn shapes() -> Vec<(u64, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (2, 2, 1),
        (3, 3, 2),
        (4, 5, 3),
        (5, 8, 32),
        (6, 17, 4),
        (7, 40, 7),
        (8, 64, 14),
        (9, 128, 5),
        (10, 300, 6),
        (11, 300, 32),
    ];
    let mut rng = DetRng::new(0x5EED);
    for seed in 12..24 {
        shapes.push((seed, 1 + rng.index(300), 1 + rng.index(32)));
    }
    shapes
}

fn assert_nodes_eq(got: &[TreeNode], want: &[TreeNode], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: node count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        let same = match (g, w) {
            (TreeNode::Leaf { value: a }, TreeNode::Leaf { value: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                TreeNode::Split {
                    feature: fa,
                    threshold: ta,
                    left: la,
                    right: ra,
                },
                TreeNode::Split {
                    feature: fb,
                    threshold: tb,
                    left: lb,
                    right: rb,
                },
            ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
            _ => false,
        };
        assert!(same, "{what}: node {k} is {g:?}, reference {w:?}");
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{j}]: {g} vs {w}");
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn decision_tree_matches_the_per_node_sort() {
    for (seed, n, d) in shapes() {
        let data = dataset(seed, n, d);
        for (max_depth, min_samples_leaf, max_features, transform) in [
            (15, 1, None, TargetTransform::Log1p),
            (5, 3, None, TargetTransform::Identity),
            (3, 8, Some(2), TargetTransform::Identity),
            (15, 1, Some((d / 2).max(1)), TargetTransform::Log1p),
        ] {
            let config = DecisionTreeConfig {
                max_depth,
                min_samples_leaf,
                min_samples_split: 2 * min_samples_leaf,
                max_features,
                seed: seed * 31,
                target_transform: transform,
            };
            let mut tree = DecisionTreeRegressor::new(config.clone());
            tree.fit(&data).unwrap();
            let targets = transform.forward_all(data.targets());
            assert_nodes_eq(
                &tree.export_nodes(),
                &reference_tree(&data, &targets, &config),
                &format!("tree seed {seed} n {n} d {d} {config:?}"),
            );
        }
    }
}

#[test]
fn random_forest_matches_the_per_node_sort() {
    for (seed, n, d) in shapes() {
        let data = dataset(seed, n, d);
        for (max_depth, min_samples_leaf, max_features) in [(5, 1, None), (8, 2, Some(d))] {
            let config = RandomForestConfig {
                n_trees: 6,
                max_depth,
                min_samples_leaf,
                max_features,
                seed: seed + 100,
                ..RandomForestConfig::default()
            };
            let mut forest = RandomForestRegressor::new(config.clone());
            forest.fit(&data).unwrap();
            let reference = reference_forest(&data, &config);
            assert_eq!(forest.trees().len(), reference.len());
            for (t, (tree, want)) in forest.trees().iter().zip(&reference).enumerate() {
                assert_nodes_eq(
                    &tree.export_nodes(),
                    want,
                    &format!("forest seed {seed} n {n} d {d} tree {t}"),
                );
            }
        }
    }
}

#[test]
fn fasttree_matches_the_per_node_sort() {
    for (seed, n, d) in shapes() {
        let data = dataset(seed, n, d);
        for (max_depth, min_samples_leaf, subsample) in [(5, 1, 0.9), (3, 8, 1.0), (4, 2, 0.5)] {
            let config = FastTreeConfig {
                n_trees: 8,
                max_depth,
                min_samples_leaf,
                subsample,
                seed: seed + 200,
                ..FastTreeConfig::default()
            };
            let mut model = FastTreeRegressor::new(config.clone());
            model.fit(&data).unwrap();
            let (base, reference) = reference_fasttree(&data, &config);
            let what = format!("FastTree seed {seed} n {n} d {d} {config:?}");
            assert_eq!(model.base_prediction().to_bits(), base.to_bits(), "{what}");
            assert_eq!(model.trees().len(), reference.len(), "{what}");
            for (t, (tree, want)) in model.trees().iter().zip(&reference).enumerate() {
                assert_nodes_eq(&tree.export_nodes(), want, &format!("{what} stage {t}"));
            }
        }
    }
}

#[test]
fn elastic_net_matches_the_row_major_descent() {
    for (seed, n, d) in shapes() {
        let data = dataset(seed, n, d);
        for config in [
            ElasticNetConfig {
                alpha: 0.05,
                ..ElasticNetConfig::default()
            },
            ElasticNetConfig::default(),
            ElasticNetConfig {
                alpha: 0.01,
                l1_ratio: 0.9,
                fit_intercept: false,
                target_transform: TargetTransform::Identity,
                ..ElasticNetConfig::default()
            },
        ] {
            let what = format!("elastic net seed {seed} n {n} d {d} {config:?}");
            let mut cold = ElasticNet::new(config.clone());
            cold.fit(&data).unwrap();
            let (want_w, want_b) = reference_enet(&data, &config, None);
            assert_bits_eq(cold.weights(), &want_w, &format!("{what} cold"));
            assert_eq!(cold.intercept().to_bits(), want_b.to_bits(), "{what} cold");

            // Warm: seeded off the optimum, so the descent has work to do.
            let seed_w: Vec<f64> = want_w
                .iter()
                .enumerate()
                .map(|(j, w)| w * 1.5 + 0.01 * j as f64)
                .collect();
            let mut warm = ElasticNet::new(config.clone());
            warm.set_warm_start(seed_w.clone());
            warm.fit(&data).unwrap();
            let (want_w, want_b) = reference_enet(&data, &config, Some(&seed_w));
            assert_bits_eq(warm.weights(), &want_w, &format!("{what} warm"));
            assert_eq!(warm.intercept().to_bits(), want_b.to_bits(), "{what} warm");

            // A seed of the wrong length is ignored: the fit is the cold one.
            let mut wrong = ElasticNet::new(config.clone());
            wrong.set_warm_start(vec![0.5; d + 1]);
            wrong.fit(&data).unwrap();
            assert_bits_eq(wrong.weights(), cold.weights(), &format!("{what} bad seed"));
            assert_eq!(wrong.intercept().to_bits(), cold.intercept().to_bits());
        }
    }
}
