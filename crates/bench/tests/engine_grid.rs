//! The PR's acceptance gate: the full paper grid (9 workloads ×
//! IHT {1, 8, 16, 32} × 2 hash algorithms) runs through one [`Sweep`]
//! call, assembles each workload exactly once, generates each FHT once
//! per hash algorithm, runs in parallel — and is byte-identical to a
//! serial run.
//!
//! [`Sweep`]: cimon_sim::engine::Sweep

use cimon_bench::{paper_grid, suite, FIG6_SIZES, GRID_ALGOS};

#[test]
fn full_paper_grid_parallel_is_byte_identical_to_serial() {
    let grid = paper_grid();
    assert_eq!(grid.len(), 9 * FIG6_SIZES.len() * GRID_ALGOS.len());

    // Force a real worker pool (default_workers() may be 1 on small
    // CI machines, which would degrade to the serial path).
    let parallel = grid.run_with_workers(4).expect("grid analyses");
    let serial = grid.run_serial().expect("grid analyses");
    assert_eq!(parallel, serial, "parallel sweep must be deterministic");

    // Every row's architectural counters, both hash algorithms, are
    // pinned byte for byte (the CI bench job diffs the same file).
    assert!(
        cimon_bench::report::to_json(&serial) == include_str!("../reference/BENCH_grid.json"),
        "grid counters drifted from crates/bench/reference/BENCH_grid.json"
    );

    // Every grid point ran clean: expected exit code, no mismatches.
    for row in &parallel {
        assert!(
            row.is_clean(),
            "{} @ {} entries / {}: {:?}",
            row.workload,
            row.iht_entries,
            row.hash_algo,
            row.outcome
        );
        assert!(row.checks > 0, "{} never checked a block", row.workload);
    }

    // The artifact layer assembled each workload exactly once — the
    // registry is the only assembler caller in this process.
    assert_eq!(
        cimon_workloads::assembly_count(),
        9,
        "workloads must be assembled exactly once each"
    );

    // One FHT per (workload, hash algo), shared across all four table
    // sizes and both the parallel and the serial pass.
    for artifact in suite() {
        assert_eq!(
            artifact.cached_fhts(),
            GRID_ALGOS.len(),
            "{} regenerated an FHT",
            artifact.name()
        );
    }

    // Structural spot checks Figure 6 relies on: miss rates are
    // monotone non-increasing in table size for every (workload, algo).
    for series in parallel.chunks(FIG6_SIZES.len()) {
        let mut prev = f64::INFINITY;
        for row in series {
            assert!(
                row.miss_rate_percent <= prev + 1e-9,
                "{} {}: miss rate rose at {} entries",
                row.workload,
                row.hash_algo,
                row.iht_entries
            );
            prev = row.miss_rate_percent;
        }
    }
}
