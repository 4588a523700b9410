//! The serial f64 mapping kernel on the mapping-bound hot path.
//!
//! Two timed groups:
//!
//! * `smacof_sweep_512` — pure Guttman sweeps on a fixed 512-point
//!   dissimilarity matrix, warm-started from one precomputed classical
//!   seed so the timing isolates the sweep kernel (`tolerance(0.0)` pins
//!   the solve at exactly `SWEEPS` sweeps).
//! * `mapping_bound_path_128` — the per-period mapping plane end to end.
//!   The naive arm is the paper's literal §2.2 pipeline run every period:
//!   rebuild the distance matrix from scratch and solve from a fresh
//!   classical-MDS seed. The incremental arm is the plane the engine
//!   actually runs: column append + warm-started sweep. Both arms run one
//!   majorization sweep per period, so the gap is the maintenance
//!   machinery itself; it carries the end-to-end ≥10× claim.
//!
//! Distance-matrix upkeep alone (rebuild vs append) is timed by the
//! `distance_matrix_maintenance` group of `ablation_mapping_hotpath`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_mds::classical::classical_mds;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};

const N_SWEEP: usize = 512;
const N_PATH: usize = 128;
/// Sweeps per solve in the pure-sweep group (`tolerance(0.0)` keeps the
/// solve at exactly this count).
const SWEEPS: usize = 3;

/// Deterministic pseudo-random measurement vectors in `[0, 1]^dim`.
fn vectors(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x4d41_5050);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0f64..1.0)).collect())
        .collect()
}

fn bench_mapping_path(c: &mut Criterion) {
    let pts = vectors(N_SWEEP, 10);
    let dissim = DistanceMatrix::from_vectors(&pts).expect("matrix");
    // One classical seed for every iteration: the expensive O(n³)
    // eigensolve happens once, outside the timing.
    let seed = classical_mds(&dissim, 2).expect("seed");

    let mut group = c.benchmark_group("smacof_sweep_512");
    group.sample_size(10);
    let s = Smacof::new(2).max_iterations(SWEEPS).tolerance(0.0);
    group.bench_function("f64_serial", |b| {
        b.iter(|| {
            s.embed_warm(std::hint::black_box(&dissim), seed.clone())
                .expect("embed")
        });
    });
    group.finish();

    // End-to-end per-period mapping plane, one sweep per new point.
    let path_pts = &pts[..N_PATH];
    let s = Smacof::new(2).max_iterations(1).tolerance(0.0);
    let mut group = c.benchmark_group("mapping_bound_path_128");
    group.sample_size(10);
    group.bench_function("naive_per_period_full_mds", |b| {
        // The paper's literal pipeline every period: full matrix rebuild
        // plus a fresh classical seed for the solve.
        b.iter(|| {
            let mut x = 0.0;
            for m in 2..=path_pts.len() {
                let dissim = DistanceMatrix::from_vectors(std::hint::black_box(&path_pts[..m]))
                    .expect("matrix");
                let e = s.embed(&dissim).expect("embed");
                x = e.xy(0).0;
            }
            x
        });
    });
    group.bench_function("incremental_plane", |b| {
        // Column append + warm start — the engine's actual per-period
        // work.
        b.iter(|| {
            let mut dissim =
                DistanceMatrix::from_vectors(std::hint::black_box(&path_pts[..2])).expect("matrix");
            let mut embedding = s.embed(&dissim).expect("embed");
            for m in 2..path_pts.len() {
                dissim
                    .append_point(&path_pts[..m], &path_pts[m])
                    .expect("append");
                let init = warm_start_with_new_points(&embedding, &dissim).expect("warm start");
                embedding = s.embed_warm(&dissim, init).expect("embed warm");
            }
            embedding.xy(0).0
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mapping_path);
criterion_main!(benches);
