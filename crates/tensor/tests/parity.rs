//! Serial-vs-parallel bit-identity for every kernel on the `mhg-par` pool.
//!
//! The pool's contract is that the thread count never changes any f32
//! result. These properties drive each ported kernel across random shapes
//! (sized to straddle the pool's inline-work threshold, so the parallel
//! path genuinely runs) and assert `to_bits()` equality between 1 thread
//! and `MHG_THREADS` ∈ {2, 7}, plus a fixed paper-scale case for 1 vs 4.

use mhg_tensor::{InitKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact bit pattern of a tensor, shape included.
fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
    (
        t.rows(),
        t.cols(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Asserts `compute()` is bit-identical at 1, 2 and 7 threads.
fn assert_parity(compute: impl Fn() -> Tensor) -> Result<(), proptest::test_runner::TestCaseError> {
    let serial = mhg_par::with_threads(1, &compute);
    for threads in [2usize, 7] {
        let parallel = mhg_par::with_threads(threads, &compute);
        prop_assert_eq!(
            bits(&serial),
            bits(&parallel),
            "kernel diverged at {} threads",
            threads
        );
    }
    Ok(())
}

fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    InitKind::Uniform { limit: 2.0 }.init(rows, cols, rng)
}

proptest! {
    #[test]
    fn matmul_parity((m, k, n) in (1usize..80, 1usize..64, 1usize..64), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        assert_parity(|| a.matmul(&b))?;
    }

    #[test]
    fn matmul_transposed_parity((m, k, n) in (1usize..80, 1usize..64, 1usize..64),
                                seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        assert_parity(|| a.matmul_transposed(&b))?;
        // Every entry sums over k in order, exactly as matmul over bᵀ does.
        prop_assert_eq!(bits(&a.matmul_transposed(&b)), bits(&a.matmul(&b.transpose())));
    }

    #[test]
    fn transposed_matmul_parity((k, m, n) in (1usize..80, 1usize..64, 1usize..64),
                                seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(k, m, &mut rng);
        let b = random(k, n, &mut rng);
        assert_parity(|| a.transposed_matmul(&b))?;
        // And it is the explicit transpose's product, bit for bit.
        prop_assert_eq!(bits(&a.transposed_matmul(&b)), bits(&a.transpose().matmul(&b)));
    }

    #[test]
    fn transpose_parity((m, n) in (1usize..200, 1usize..120), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        assert_parity(|| a.transpose())?;
        // And the tiled kernel must still be a correct transpose.
        let t = a.transpose();
        for i in 0..m.min(8) {
            for j in 0..n.min(8) {
                prop_assert_eq!(t[(j, i)].to_bits(), a[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn elementwise_parity((m, n) in (1usize..200, 1usize..120), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        let b = random(m, n, &mut rng);
        assert_parity(|| a.zip_map(&b, |x, y| x * y + 0.5))?;
        assert_parity(|| a.map(|x| (x * 1.7).tanh()))?;
        assert_parity(|| a.sigmoid())?;
    }

    #[test]
    fn softmax_rows_parity((m, n) in (1usize..200, 1usize..64), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        assert_parity(|| a.softmax_rows())?;
    }

    #[test]
    fn gather_scatter_parity((rows, n_idx, cols) in (1usize..100, 1usize..400, 1usize..48),
                             seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random(rows, cols, &mut rng);
        let indices: Vec<usize> = (0..n_idx).map(|i| (i * 7 + seed as usize) % rows).collect();
        assert_parity(|| table.gather_rows(&indices))?;

        let grad = random(n_idx, cols, &mut rng);
        let idx32: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        assert_parity(|| {
            let mut acc = table.clone();
            acc.scatter_add_rows(&idx32, &grad);
            acc
        })?;
    }
}

/// Paper-scale matmul (batch 2048 walks × hidden 128 · 128×128), 1 vs 4
/// threads — the exact pairing the CI determinism matrix exercises.
#[test]
fn paper_scale_matmul_is_bit_identical_at_4_threads() {
    let mut rng = StdRng::seed_from_u64(2022);
    let a = random(2048, 128, &mut rng);
    let b = random(128, 128, &mut rng);
    let serial = mhg_par::with_threads(1, || a.matmul(&b));
    let parallel = mhg_par::with_threads(4, || a.matmul(&b));
    assert_eq!(bits(&serial), bits(&parallel));
}
