//! Engine-equivalence regression gate: the determinism-suite configs
//! (mono / split / dvfs, each with and without a chaos campaign, all on
//! the 3-tenant workload) must keep producing the exact report, series
//! and trace bytes the tick-loop engine produced before the event-queue
//! rewrite — at 8 and 3 shards and 1, 2 and 8 threads. The series/trace
//! hashes below were generated from the pre-refactor per-tick engine
//! (the `balanced` row excepted, see below); the report hashes
//! were regenerated when the `balancer` report section landed (a pure
//! schema addition: `"balancer": null` on every non-balanced run, with
//! all other bytes — and the series/trace artifacts — unchanged). Any
//! engine change that drifts a single byte of any artifact fails here.
//! The `balanced` row (fleet balancer over a 2-hot-cell skew) was added
//! later, with all three hashes taken from the per-shard-accumulator
//! engine that preceded worker-local accumulation.
//!
//! Regenerate (only when an *intentional* semantic change lands):
//! `ENGINE_GOLDEN_PRINT=1 cargo test -p litegpu-bench --test
//! engine_equivalence -- --nocapture` and paste the printed table.

use std::process::Command;

/// FNV-1a 64-bit over the artifact bytes — dependency-free and stable.
/// Collisions are irrelevant here: the gate only needs byte drift to
/// change the digest, not cryptographic strength.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(combo, extra flags, report fnv, series fnv, trace fnv)`. Hashes
/// are of: the report JSON printed to stdout (trailing newline
/// trimmed), the series JSONL bytes, and the Chrome trace JSON bytes.
const GOLDEN: &[(&str, &[&str], u64, u64, u64)] = &[
    (
        "mono",
        &["--serving", "mono"],
        0x514bd279779fd38a,
        0x57d51669e121ff6f,
        0x0178b0f1d5b01d30,
    ),
    (
        "split",
        &["--serving", "split"],
        0x48417fbbd7b83597,
        0x94b8b348bb98f5da,
        0x018e7574744eb70a,
    ),
    (
        "dvfs",
        &["--serving", "split", "--dvfs"],
        0x9ca40b541f79694d,
        0x2bad5179e3a27965,
        0x734c317ed45d5494,
    ),
    (
        "mono_chaos",
        &["--serving", "mono", "--chaos", "rack"],
        0xaafdea3a6b34c643,
        0x982a4e3f2c4b2bf3,
        0x070388de9701fc8c,
    ),
    (
        "split_chaos",
        &["--serving", "split", "--chaos", "partition"],
        0xdc24d66b0f342681,
        0x0dd4bf4f8e764cdf,
        0xa49e37433b90682a,
    ),
    (
        "balanced",
        &["--serving", "mono", "--balancer", "--skew", "2x2.5"],
        0x9fa6c29b05948ed4,
        0xe66d5e65644873c6,
        0x248997aa055880ee,
    ),
    (
        "dvfs_chaos",
        &["--serving", "split", "--dvfs", "--chaos", "thermal"],
        0xa6b31b7069b9bf19,
        0x2bad5179e3a27965,
        0xc5c8d9ece9abf736,
    ),
];

/// Every row runs at an even split (8 shards of one cell each) and an
/// uneven one (3 shards over 8 cells: 2, 3 and 3 cells), each at 1, 2
/// and 8 threads (threads are capped at the shard count).
const SHARDS_THREADS: [(u32, u32); 6] = [(8, 1), (8, 2), (8, 8), (3, 1), (3, 2), (3, 8)];

fn run_combo(combo: &str, flags: &[&str], shards: u32, threads: u32) -> (u64, u64, u64) {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let series = dir.join(format!("eq_series_{combo}_s{shards}_t{threads}.jsonl"));
    let trace = dir.join(format!("eq_trace_{combo}_s{shards}_t{threads}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_sim_fleet"))
        .args([
            "--gpu",
            "lite",
            "--instances",
            "64",
            "--cell-size",
            "8",
            "--hours",
            "0.5",
            "--accel",
            "50000",
            "--ctrl",
            "auto",
            "--workload",
            "multi",
            "--no-baseline",
            "--seed",
            "42",
        ])
        .args(flags)
        .args(["--shards", &shards.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--series", series.to_str().unwrap()])
        .args(["--series-dt", "60000000"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--trace-every", "16"])
        .output()
        .expect("sim_fleet runs");
    assert!(
        out.status.success(),
        "sim_fleet {combo} t{threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    let report = fnv1a64(stdout.trim_end().as_bytes());
    let series = fnv1a64(&std::fs::read(&series).expect("series artifact"));
    let trace = fnv1a64(&std::fs::read(&trace).expect("trace artifact"));
    (report, series, trace)
}

#[test]
fn event_engine_matches_tick_loop_goldens() {
    let print = std::env::var("ENGINE_GOLDEN_PRINT").is_ok();
    let mut drift = Vec::new();
    for &(combo, flags, report_g, series_g, trace_g) in GOLDEN {
        for (shards, threads) in SHARDS_THREADS {
            let (report, series, trace) = run_combo(combo, flags, shards, threads);
            if print && shards == 8 && threads == 1 {
                println!("(\"{combo}\", ..., {report:#018x}, {series:#018x}, {trace:#018x}),");
            }
            for (name, got, want) in [
                ("report", report, report_g),
                ("series", series, series_g),
                ("trace", trace, trace_g),
            ] {
                if got != want {
                    drift.push(format!(
                        "{combo} s{shards} t{threads} {name}: got {got:#018x}, golden {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "engine output drifted from tick-loop goldens:\n{}",
        drift.join("\n")
    );
}
