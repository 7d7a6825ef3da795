//! SIMD-vs-scalar exact-equality property tests.
//!
//! The lane-blocked kernels in `cleo_mlkit::simd` promise **bitwise** identity
//! with the scalar reference path (`predict_row` / per-row transforms): lanes
//! map to rows, every per-row accumulation keeps the scalar summation order,
//! and no arm may contract multiply-add into FMA.  These tests pin that
//! contract across ragged row counts (1..=67 exercises every combination of
//! 8-row lane blocks, 4-row quads, and scalar tails) and across every
//! instruction-set arm the host CPU supports.

use cleo_common::rng::DetRng;
use cleo_mlkit::gbt::FastTreeConfig;
use cleo_mlkit::loss::TargetTransform;
use cleo_mlkit::model::Regressor;
use cleo_mlkit::scaler::StandardScaler;
use cleo_mlkit::simd::{self, Isa, LANES};
use cleo_mlkit::{Dataset, ElasticNet, FastTreeRegressor, FeatureMatrix};

fn random_dataset(rng: &mut DetRng, n_rows: usize, n_cols: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n_rows)
        .map(|_| (0..n_cols).map(|_| rng.uniform(0.0, 1e6)).collect())
        .collect();
    let targets: Vec<f64> = (0..n_rows).map(|_| rng.uniform(0.01, 1e5)).collect();
    let names = (0..n_cols).map(|i| format!("f{i}")).collect();
    Dataset::from_rows(names, rows, targets).unwrap()
}

fn random_matrix(rng: &mut DetRng, n_rows: usize, n_cols: usize) -> FeatureMatrix {
    let mut m = FeatureMatrix::with_capacity(n_cols, n_rows);
    for _ in 0..n_rows {
        m.push_row_with(|dst| {
            for v in dst.iter_mut() {
                *v = rng.uniform(0.0, 1e6);
            }
        });
    }
    m
}

/// Every arm the host CPU can actually run.
fn supported_arms() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|isa| isa.supported()).collect()
}

#[test]
fn elastic_net_batch_is_bit_identical_across_ragged_row_counts() {
    let mut rng = DetRng::new(9001);
    let train = random_dataset(&mut rng, 48, 13);
    let mut model = ElasticNet::paper_default();
    model.fit(&train).unwrap();
    for n_rows in 1..=67 {
        let rows = random_matrix(&mut rng, n_rows, 13);
        let mut batch = Vec::new();
        model.predict_batch_into(&rows, &mut batch);
        assert_eq!(batch.len(), n_rows);
        for (i, &got) in batch.iter().enumerate() {
            let want = model.predict_row(rows.row(i));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "elastic net row {i} of {n_rows} diverged: {got} vs {want}"
            );
        }
    }
}

#[test]
fn elastic_net_clamped_batch_fuses_the_same_epilogue() {
    let mut rng = DetRng::new(9002);
    let train = random_dataset(&mut rng, 40, 9);
    let mut model = ElasticNet::paper_default();
    model.fit(&train).unwrap();
    let (floor, ceiling) = (10.0, 5e4);
    for n_rows in [1, 7, 8, 9, 31, 64, 67] {
        let rows = random_matrix(&mut rng, n_rows, 9);
        let mut fused = Vec::new();
        model.predict_batch_clamped_into(&rows, &mut fused, floor, ceiling);
        for (i, &got) in fused.iter().enumerate() {
            let want = model.predict_row(rows.row(i)).clamp(floor, ceiling);
            assert_eq!(got.to_bits(), want.to_bits(), "row {i} of {n_rows}");
        }
    }
}

#[test]
fn fasttree_depth3_batch_is_bit_identical_across_ragged_row_counts() {
    let mut rng = DetRng::new(9003);
    let train = random_dataset(&mut rng, 64, 11);
    // The combined meta-model's shape: depth 3, identity transform — the
    // lane-blocked oblivious kernel handles whole 8-row blocks.
    let mut model = FastTreeRegressor::new(FastTreeConfig {
        n_trees: 50,
        max_depth: 3,
        target_transform: TargetTransform::Identity,
        ..FastTreeConfig::default()
    });
    model.fit(&train).unwrap();
    for n_rows in 1..=67 {
        let rows = random_matrix(&mut rng, n_rows, 11);
        let mut batch = Vec::new();
        model.predict_batch_into(&rows, &mut batch);
        for (i, &got) in batch.iter().enumerate() {
            let want = model.predict_row(rows.row(i));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "fasttree row {i} of {n_rows} diverged: {got} vs {want}"
            );
        }
    }
}

/// Every row count on every arm: whole 8-row blocks, a ragged tail of 2–7
/// rows run as one zero-padded block, and a last single row through the node
/// walk must each reproduce `predict_row` bit for bit.
#[test]
fn fasttree_depth3_padded_tail_is_bit_identical_on_every_arm() {
    let mut rng = DetRng::new(9010);
    let train = random_dataset(&mut rng, 64, 14);
    let mut model = FastTreeRegressor::new(FastTreeConfig {
        n_trees: 50,
        max_depth: 3,
        target_transform: TargetTransform::Identity,
        ..FastTreeConfig::default()
    });
    model.fit(&train).unwrap();
    let arms = supported_arms();
    for n_rows in 1..=67 {
        let rows = random_matrix(&mut rng, n_rows, 14);
        for &isa in &arms {
            let mut batch = vec![f64::NAN];
            model.predict_batch_with(isa, &rows, &mut batch);
            assert_eq!(batch.len(), n_rows + 1, "appends one value per row");
            for (i, &got) in batch[1..].iter().enumerate() {
                let want = model.predict_row(rows.row(i));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: row {i} of {n_rows} diverged: {got} vs {want}",
                    isa.name()
                );
            }
        }
    }
}

#[test]
fn fasttree_depth5_batch_stays_bit_identical() {
    // Depth-5 ensembles take the W32 quad path (no lane blocks); the batch
    // contract must hold there too.
    let mut rng = DetRng::new(9004);
    let train = random_dataset(&mut rng, 64, 7);
    let mut model = FastTreeRegressor::new(FastTreeConfig {
        n_trees: 20,
        max_depth: 5,
        ..FastTreeConfig::default()
    });
    model.fit(&train).unwrap();
    for n_rows in [1, 3, 8, 13, 67] {
        let rows = random_matrix(&mut rng, n_rows, 7);
        let mut batch = Vec::new();
        model.predict_batch_into(&rows, &mut batch);
        for (i, &got) in batch.iter().enumerate() {
            assert_eq!(got.to_bits(), model.predict_row(rows.row(i)).to_bits());
        }
    }
}

#[test]
fn scaler_transform_is_bit_identical_to_row_transform() {
    let mut rng = DetRng::new(9005);
    for &(n_rows, n_cols) in &[(1usize, 3usize), (5, 8), (12, 13), (67, 32)] {
        let ds = random_dataset(&mut rng, n_rows, n_cols);
        let scaler = StandardScaler::fit(&ds);
        let transformed = scaler.transform(&ds);
        for i in 0..n_rows {
            let want = scaler.transform_row(ds.row(i));
            for (j, (&got, &w)) in transformed.row(i).iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), w.to_bits(), "row {i} col {j}");
            }
        }
    }
}

#[test]
fn dot8_arms_agree_bit_for_bit() {
    let mut rng = DetRng::new(9006);
    let arms = supported_arms();
    for n_cols in [1usize, 4, 8, 13, 32] {
        let rows: Vec<f64> = (0..LANES * n_cols)
            .map(|_| rng.uniform(-1e6, 1e6))
            .collect();
        let weights: Vec<f64> = (0..n_cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut block = Vec::new();
        simd::transpose_block(&rows, n_cols, &mut block);
        let reference = simd::dot8_with(Isa::Scalar, &block, &weights);
        for &isa in &arms {
            let got = simd::dot8_with(isa, &block, &weights);
            for l in 0..LANES {
                assert_eq!(
                    got[l].to_bits(),
                    reference[l].to_bits(),
                    "{} lane {l} at {n_cols} cols",
                    isa.name()
                );
            }
        }
    }
}

#[test]
fn tree8_arms_agree_bit_for_bit() {
    let mut rng = DetRng::new(9007);
    let arms = supported_arms();
    let n_cols = 14usize;
    for _ in 0..16 {
        let n_trees = 1 + rng.index(64);
        let splits: Vec<[(u32, f64); 8]> = (0..n_trees)
            .map(|_| std::array::from_fn(|_| (rng.index(n_cols) as u32, rng.uniform(-1e3, 1e3))))
            .collect();
        let leaves: Vec<[f64; 8]> = (0..n_trees)
            .map(|_| std::array::from_fn(|_| rng.uniform(-10.0, 10.0)))
            .collect();
        let rows: Vec<f64> = (0..LANES * n_cols)
            .map(|_| rng.uniform(-1e3, 1e3))
            .collect();
        let mut block = Vec::new();
        simd::transpose_block(&rows, n_cols, &mut block);
        let mut reference = [0.5f64; LANES];
        simd::tree8_depth3_accumulate_with(
            Isa::Scalar,
            &splits,
            &leaves,
            0.1,
            &block,
            &mut reference,
        );
        for &isa in &arms {
            let mut acc = [0.5f64; LANES];
            simd::tree8_depth3_accumulate_with(isa, &splits, &leaves, 0.1, &block, &mut acc);
            for l in 0..LANES {
                assert_eq!(
                    acc[l].to_bits(),
                    reference[l].to_bits(),
                    "{} lane {l}, {n_trees} trees",
                    isa.name()
                );
            }
        }
    }
}

#[test]
fn scale_shift_arms_agree_bit_for_bit() {
    let mut rng = DetRng::new(9008);
    let arms = supported_arms();
    for n_cols in [1usize, 3, 8, 13, 32] {
        let n_rows = 11;
        let original: Vec<f64> = (0..n_rows * n_cols)
            .map(|_| rng.uniform(-1e6, 1e6))
            .collect();
        let means: Vec<f64> = (0..n_cols).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let stds: Vec<f64> = (0..n_cols).map(|_| rng.uniform(0.1, 100.0)).collect();
        let mut reference = original.clone();
        simd::scale_shift_rows_with(Isa::Scalar, &mut reference, &means, &stds);
        for &isa in &arms {
            let mut values = original.clone();
            simd::scale_shift_rows_with(isa, &mut values, &means, &stds);
            for (k, (&got, &want)) in values.iter().zip(&reference).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{} elem {k}", isa.name());
            }
        }
    }
}

#[test]
fn transpose_round_trips_exactly() {
    let mut rng = DetRng::new(9009);
    for n_cols in [1usize, 7, 8, 9, 14, 32, 33] {
        let rows: Vec<f64> = (0..LANES * n_cols)
            .map(|_| rng.uniform(-1e9, 1e9))
            .collect();
        let mut block = Vec::new();
        simd::transpose_block(&rows, n_cols, &mut block);
        for lane in 0..LANES {
            for j in 0..n_cols {
                assert_eq!(
                    block[j * LANES + lane].to_bits(),
                    rows[lane * n_cols + j].to_bits(),
                    "lane {lane} col {j} of {n_cols}"
                );
            }
        }
    }
}

#[test]
fn nan_rows_take_the_descent_path_on_every_arm() {
    // NaN features must go right (`!(x <= t)`) on every arm, exactly like the
    // sequential node walk.
    let arms = supported_arms();
    let n_cols = 4usize;
    let splits: Vec<[(u32, f64); 8]> = vec![std::array::from_fn(|k| (k as u32 % 4, 0.0))];
    let leaves: Vec<[f64; 8]> = vec![std::array::from_fn(|j| j as f64)];
    let mut rows = vec![0.0f64; LANES * n_cols];
    // Lane 0: all NaN (every comparison goes right -> leaf 7).
    rows[..n_cols].fill(f64::NAN);
    let mut block = Vec::new();
    simd::transpose_block(&rows, n_cols, &mut block);
    let mut reference = [0.0f64; LANES];
    simd::tree8_depth3_accumulate_with(Isa::Scalar, &splits, &leaves, 1.0, &block, &mut reference);
    assert_eq!(reference[0], 7.0, "NaN row must land in the rightmost leaf");
    for &isa in &arms {
        let mut acc = [0.0f64; LANES];
        simd::tree8_depth3_accumulate_with(isa, &splits, &leaves, 1.0, &block, &mut acc);
        assert_eq!(acc, reference, "{}", isa.name());
    }
}
