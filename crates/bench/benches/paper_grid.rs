//! Runs the **full paper grid** — 9 workloads × IHT {1, 8, 16, 32} ×
//! {XOR, CRC-32} — and writes every row's architectural counters as
//! `BENCH_grid.json`, with the same report code as Table 1. CI diffs it
//! byte for byte against `crates/bench/reference/BENCH_grid.json`, so
//! both hash algorithms' cycle, check and miss counts stay pinned.

fn main() {
    println!("Paper grid — cycles / IHT misses per table size and hash");
    println!(
        "{:<14} {:<6} {:>7} {:>12} {:>10} {:>10}",
        "workload", "hash", "entries", "cycles", "checks", "misses"
    );
    cimon_bench::print_rule(64);
    let rows = cimon_bench::grid_rows();
    for r in &rows {
        println!(
            "{:<14} {:<6} {:>7} {:>12} {:>10} {:>10}",
            r.workload,
            r.hash_algo.name(),
            r.iht_entries,
            r.cycles,
            r.checks,
            r.misses
        );
    }
    let json = cimon_bench::report::to_json(&rows);
    match std::fs::write("BENCH_grid.json", &json) {
        Ok(()) => println!("\nwrote BENCH_grid.json ({} rows)", rows.len()),
        Err(e) => println!("\ncould not write BENCH_grid.json: {e}"),
    }
}
