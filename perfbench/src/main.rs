//! End-to-end and per-layer benchmark of the litegpu fleet stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet100k_sparse|dense_split_chaos|tco_grid \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run builds the workload's configs from `--seed`, makes one
//! untimed warm-up pass (its output hashes are the reference for the
//! seed), then repeats timed passes for `--seconds` and reports medians.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced passes and prints the per-layer
//! metrics, the tracing overhead, and writes the spans to
//! `perfbench/out/`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod checks;
mod spans;
mod workloads;

use spans::Spans;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Counts, Pass, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("instance_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric named
/// `<span>_s` is the median, over traced passes, of the time spent in
/// spans named `<span>`; the rest are counts read from public outputs.
const PER_LAYER: [(&str, &str); 45] = [
    ("roofline.build_s", "s"),
    ("roofline.builds", "count"),
    ("roofline.grid_entries", "count"),
    ("fleet.validate_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.report_json_s", "s"),
    ("fleet.processed_cell_ticks", "count"),
    ("fleet.processed_share", "ratio"),
    ("fleet.arrived", "count"),
    ("fleet.completed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.retried", "count"),
    ("fleet.decode_steps", "count"),
    ("fleet.generated_tokens", "count"),
    ("fleet.failures", "count"),
    ("fleet.spare_hits", "count"),
    ("fleet.spare_misses", "count"),
    ("ctrl.scale_ups", "count"),
    ("ctrl.scale_downs", "count"),
    ("ctrl.dvfs_retunes", "count"),
    ("ctrl.routing_shed", "count"),
    ("ctrl.admission_shed", "count"),
    ("ctrl.spilled_cohorts", "count"),
    ("ctrl.spilled_requests", "count"),
    ("ctrl.quota_clamped", "count"),
    ("kv.transfers", "count"),
    ("kv.bytes_delivered", "B"),
    ("kv.backpressure_stalls", "count"),
    ("chaos.compile_s", "s"),
    ("chaos.events", "count"),
    ("telemetry.series_render_s", "s"),
    ("telemetry.trace_render_s", "s"),
    ("telemetry.series_bytes", "B"),
    ("telemetry.trace_events", "count"),
    ("telemetry.trace_bytes", "B"),
    ("tco.sim_s", "s"),
    ("tco.price_s", "s"),
    ("tco.pareto_s", "s"),
    ("tco.report_json_s", "s"),
    ("tco.candidates", "count"),
    ("tco.frontier_points", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_level_share", "ratio"),
];

/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// Extra set-ups timed after each untraced pass. A set-up takes
/// microseconds, so `setup_s` is the median over many of them.
const SETUP_REPEATS: usize = 100;

fn usage() -> String {
    format!(
        "usage: perfbench --workload fleet100k_sparse|dense_split_chaos|tco_grid [--seed N] \
         [--seconds S] [--trace 0|1]\n(default seed {}; held-out seed {})",
        workloads::DEFAULT_SEED,
        workloads::HELD_OUT_SEED
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, workloads::DEFAULT_SEED, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "invalid --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "invalid --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's high-water resident set, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The run's books: operations attempted and failed, and the reference
/// every pass's output bytes and counts must repeat exactly.
struct Ledger {
    reference: Vec<(&'static str, u64)>,
    counts: [Option<Counts>; 2],
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Books the warm-up pass, whose hashes become the reference.
    fn new(warm: &Pass) -> Self {
        let mut l = Ledger {
            reference: warm.hashes.clone(),
            counts: [None, None],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        l.admit(warm, 0);
        l
    }

    /// Books one pass; `kind` 0 is untraced, 1 traced (the two record
    /// different counts). A pass whose bytes or counts differ from the
    /// reference fails whole.
    fn admit(&mut self, p: &Pass, kind: usize) {
        self.attempted += p.ops;
        let mut failed = p.failed_ops;
        self.notes.extend(p.problems.iter().cloned());
        if p.hashes != self.reference {
            failed = p.ops;
            self.notes.push(format!(
                "output bytes differ at one seed: {:x?} vs reference {:x?}",
                p.hashes, self.reference
            ));
        }
        match &self.counts[kind] {
            None => self.counts[kind] = Some(p.counts.clone()),
            Some(c) if *c != p.counts => {
                failed = p.ops;
                self.notes
                    .push("per-layer counts differ at one seed".into());
            }
            Some(_) => {}
        }
        self.failed += failed;
    }

    fn fail(&mut self, ops: u64, note: String) {
        self.attempted += ops;
        self.failed += ops;
        self.notes.push(note);
    }
}

/// Runs passes until `budget` has elapsed (and at least [`MIN_PASSES`]
/// of each kind); `traced` alternates untraced and traced passes, and
/// which of the two goes first, so neither gains from its position.
/// Also returns the set-up times: each untraced pass's own and
/// [`SETUP_REPEATS`] more after it.
fn measure(
    a: &Args,
    ledger: &mut Ledger,
    sp: &mut Spans,
    traced: bool,
) -> ([Vec<Pass>; 2], Vec<f64>) {
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut done: [Vec<Pass>; 2] = [Vec::new(), Vec::new()];
    let mut setups = Vec::new();
    let orders: [&[usize]; 2] = if traced {
        [&[0, 1], &[1, 0]]
    } else {
        [&[0], &[0]]
    };
    let mut round = 0;
    while start.elapsed() < budget || orders[0].iter().any(|&k| done[k].len() < MIN_PASSES) {
        round += 1;
        for &kind in orders[round % 2] {
            let p = if kind == 1 {
                let id = done[1].len() as u32;
                sp.begin_pass(id);
                workloads::pass(a.workload, a.seed, sp)
            } else {
                let p = workloads::pass(a.workload, a.seed, &mut Spans::off());
                setups.extend(p.timing.map(|t| t.setup_s));
                setups
                    .extend((0..SETUP_REPEATS).map(|_| workloads::time_setup(a.workload, a.seed)));
                p
            };
            ledger.admit(&p, kind);
            done[kind].push(p);
        }
    }
    (done, setups)
}

fn median_by<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(xs.iter().map(f).collect())
}

fn timings(passes: &[Pass]) -> Vec<workloads::Timing> {
    passes.iter().filter_map(|p| p.timing).collect()
}

fn untraced(a: &Args) -> Outcome {
    let warm = workloads::pass(a.workload, a.seed, &mut Spans::off());
    let mut ledger = Ledger::new(&warm);
    drop(warm);
    let ([passes, _], setups) = measure(a, &mut ledger, &mut Spans::off(), false);
    let t = timings(&passes);
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        ledger.notes.push(format!("peak RSS unreadable: {e}"));
        0.0
    });
    let metrics = vec![
        median_by(&t, |t| t.total_s),
        median(setups),
        median_by(&t, |t| t.instance_ticks as f64 / t.sim_s.max(1e-12)),
        rss,
        1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64,
    ];
    eprintln!(
        "# {} seed {}: {} timed passes, total_s {:.4} setup_s {:.6} instance_ticks/s {:.4e} \
         peak_rss {:.1} MB",
        a.workload.name(),
        a.seed,
        t.len(),
        metrics[0],
        metrics[1],
        metrics[2],
        metrics[3]
    );
    let each: Vec<String> = t.iter().map(|t| format!("{:.3}", t.total_s)).collect();
    eprintln!("#   pass total_s: {}", each.join(" "));
    Outcome::new(ledger, &END_TO_END, metrics)
}

fn traced(a: &Args) -> Outcome {
    let epoch = Instant::now();
    let warm = workloads::pass(a.workload, a.seed, &mut Spans::off());
    let mut ledger = Ledger::new(&warm);
    drop(warm);
    let cfgs = match workloads::configs(a.workload, a.seed) {
        Ok(c) => c,
        Err(e) => {
            ledger.fail(1, format!("configs: {e}"));
            Vec::new()
        }
    };
    let mut sp = Spans::on(epoch);
    let ([plain, traced], _) = measure(a, &mut ledger, &mut sp, true);
    // The standalone roofline builds, one set per traced pass, tagged
    // with that pass but outside its root span (so not in its wall).
    let mut counts = ledger.counts[1].clone().unwrap_or_default();
    for id in 0..traced.len() as u32 {
        sp.begin_pass(id);
        match workloads::roofline_probes(&cfgs, &mut sp) {
            Ok(c) => counts.extend(c),
            Err(e) => ledger.fail(cfgs.len() as u64, format!("roofline build: {e}")),
        }
    }
    match workloads::processed_cell_ticks(a.workload, &cfgs, a.seed) {
        Ok((processed, total, hashes)) => {
            counts.insert("fleet.processed_cell_ticks", processed as f64);
            counts.insert(
                "fleet.processed_share",
                processed as f64 / total.max(1) as f64,
            );
            // A profiled single-fleet run must render the same report.
            let reference = ledger.reference.iter().find(|(k, _)| *k == "report");
            if let (Some(&(_, r)), [h]) = (reference, hashes.as_slice()) {
                if *h != r {
                    ledger.fail(1, "profiled run changed the report bytes".into());
                }
            }
        }
        Err(e) => ledger.fail(cfgs.len() as u64, format!("profiled run: {e}")),
    }

    let summaries: Vec<spans::PassSummary> = (0..traced.len() as u32)
        .map(|id| spans::summarize(sp.spans(), id, "pass"))
        .collect();
    let wall = median_by(&summaries, |s| s.wall_s);
    let untraced_total = median_by(&timings(&plain), |t| t.total_s);
    let top_level = median_by(&summaries, |s| s.top_level_s / s.wall_s.max(1e-12));
    counts.insert("trace.wall_s", wall);
    counts.insert("trace.untraced_total_s", untraced_total);
    counts.insert("trace.overhead_s", wall - untraced_total);
    counts.insert("trace.top_level_share", top_level);
    let metrics: Vec<f64> = PER_LAYER
        .iter()
        .map(|(name, _)| match name.strip_suffix("_s") {
            Some(span) if !name.starts_with("trace.") => {
                median_by(&summaries, |s| s.total_s.get(span).copied().unwrap_or(0.0))
            }
            _ => counts.get(name).copied().unwrap_or(0.0),
        })
        .collect();

    eprintln!(
        "# {} seed {} traced: {} traced + {} untraced passes, traced wall {wall:.4} s, \
         untraced {untraced_total:.4} s, overhead {:+.4} s, top-level spans cover \
         {top_level:.4} of the wall",
        a.workload.name(),
        a.seed,
        traced.len(),
        plain.len(),
        wall - untraced_total,
    );
    let names: BTreeSet<&str> = summaries
        .iter()
        .flat_map(|s| s.self_s.keys().copied())
        .collect();
    for name in names {
        let v = median_by(&summaries, |s| s.self_s.get(name).copied().unwrap_or(0.0));
        eprintln!("#   self time {name:<24} {v:.6} s");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", a.workload.name(), a.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            spans::to_jsonl(sp.spans(), a.workload.name(), a.seed),
        )
    });
    match written {
        Ok(()) => eprintln!("# spans: {}", path.display()),
        Err(e) => eprintln!("# spans not written ({}): {e}", path.display()),
    }
    Outcome::new(ledger, &PER_LAYER, metrics)
}

/// The result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn new(ledger: Ledger, names: &[(&'static str, &'static str)], values: Vec<f64>) -> Self {
        for n in ledger.notes.iter().take(20) {
            eprintln!("# FAILED: {n}");
        }
        let finite = values.iter().all(|v| v.is_finite());
        Outcome {
            correct: ledger.failed == 0 && finite,
            attempted: ledger.attempted.max(1),
            failed: ledger.failed,
            metrics: names
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, if v.is_finite() { v } else { 0.0 }))
                .collect(),
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let out = if a.trace { traced(&a) } else { untraced(&a) };
    println!("{}", out.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_with(hash: u64) -> Pass {
        Pass {
            ops: 2,
            hashes: vec![("report", hash)],
            counts: Counts::from([("fleet.arrived", 10.0)]),
            ..Pass::default()
        }
    }

    #[test]
    fn flipped_hash_fails_the_whole_pass() {
        let mut l = Ledger::new(&pass_with(0xabc));
        l.admit(&pass_with(0xabc), 0);
        assert_eq!((l.attempted, l.failed), (4, 0));
        l.admit(&pass_with(0xabc ^ 1), 0);
        assert_eq!((l.attempted, l.failed), (6, 2));
    }

    #[test]
    fn drifting_counts_fail_the_pass() {
        let mut l = Ledger::new(&pass_with(1));
        let mut p = pass_with(1);
        p.counts.insert("fleet.arrived", 11.0);
        l.admit(&p, 0);
        assert_eq!(l.failed, 2);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut l = Ledger::new(&pass_with(1));
        l.fail(1, "x".into());
        let o = Outcome::new(l, &END_TO_END, vec![1.5, 0.25, 3e9, 10.0, 2.0 / 3.0]);
        let j = o.to_json();
        assert!(
            j.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
        );
        assert!(j.contains("\"total_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(litegpu_telemetry::validate_json(&j), Ok(()));
    }

    #[test]
    fn args_parse_the_cli_flags() {
        let argv: Vec<String> = [
            "--workload",
            "tco_grid",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TcoGrid, 7, 3, true)
        );
        assert!(parse_args(&argv[2..]).is_err(), "workload is required");
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    /// The metric tables here and BENCHMARK.json at the repo root name
    /// the same metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
