//! The three workloads: configs generated from the seed, and one pass of
//! each — config construction through the rendered output bytes, with
//! spans around every public call when the recorder is on.

use crate::checks;
use crate::spans::Spans;
use litegpu_bench::cli::skew_multipliers as skew;
use litegpu_chaos::{Campaign, CampaignKind, DomainPlan};
use litegpu_fleet::ctrl::{BalancerConfig, CtrlConfig, Policy};
use litegpu_fleet::{
    run_sharded_full, FleetConfig, FleetReport, ServingMode, TelemetryConfig, WorkloadSpec,
};
use litegpu_roofline::stepcost::StepCostTable;
use litegpu_tco::model::breakdown_for;
use litegpu_tco::{
    evaluate_sweep_with, pareto, slo_tokens, standard_grid, DesignPoint, FrontierPoint, SweepBase,
    TcoModel, TcoReport,
};
use litegpu_telemetry::profile::PHASE_CHAOS;
use litegpu_telemetry::{render_chrome_trace, validate_json};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed used when none is given, and the seed held out from tuning:
/// a claimed gain must also hold on the held-out seed.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 7919;

/// Simulated horizon of the two single-fleet workloads, hours.
const FLEET_HOURS: f64 = 6.0;

/// `sim_tco`'s standard sweep base: 24 H100-equivalents at 2 req/s
/// each, one hour at 2000x failure acceleration.
const TCO_BASE: SweepBase = SweepBase {
    equiv_instances: 24,
    rate_per_equiv: 2.0,
    hours: 1.0,
    accel: 2_000.0,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet100kSparse,
    DenseSplitChaos,
    TcoGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fleet100kSparse,
        Workload::DenseSplitChaos,
        Workload::TcoGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet100kSparse => "fleet100k_sparse",
            Workload::DenseSplitChaos => "dense_split_chaos",
            Workload::TcoGrid => "tco_grid",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of one fleet run.
    fn threads(self) -> u32 {
        match self {
            Workload::Fleet100kSparse => 2,
            _ => 1,
        }
    }
}

/// Deterministic per-layer counts, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Host times of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Config construction up to the first simulation entry call, s.
    pub setup_s: f64,
    /// Config construction through the rendered output bytes, s.
    pub total_s: f64,
    /// Inside the simulation entry calls, s.
    pub sim_s: f64,
    /// Instances x horizon ticks, summed over the pass's fleet runs.
    pub instance_ticks: u64,
}

/// One pass: its timing (absent when it produced no outputs), the
/// operations it attempted and failed, output hashes and counts.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub timing: Option<Timing>,
    pub ops: u64,
    pub failed_ops: u64,
    pub problems: Vec<String>,
    pub hashes: Vec<(&'static str, u64)>,
    pub counts: Counts,
}

impl Pass {
    fn failed(ops: u64, problem: String) -> Self {
        Pass {
            ops,
            failed_ops: ops,
            problems: vec![problem],
            ..Pass::default()
        }
    }
}

/// Runs `f`, turning an `Err` or a panic into a message.
fn guard<T, E: Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

fn lite_ctrl(control_interval_s: f64, dvfs: bool, balancer: BalancerConfig) -> CtrlConfig {
    let mut c = CtrlConfig::demo(Policy::GateToEfficiency);
    if dvfs {
        c = c.with_dvfs();
    }
    c.control_interval_s = control_interval_s;
    if let Some(p) = c.power.as_mut() {
        p.warm_pool = 1;
    }
    c.with_balancer(balancer)
}

/// The fleet config of a single-fleet workload, minus its chaos
/// campaign.
fn base_config(w: Workload) -> FleetConfig {
    let mut cfg = FleetConfig::lite_demo();
    cfg.horizon_s = FLEET_HOURS * 3600.0;
    match w {
        Workload::Fleet100kSparse => {
            cfg.instances = 100_000;
            cfg.cell_size = 64;
            cfg.workload = WorkloadSpec::multi_tenant_demo(0.0005);
            cfg.cell_rate_multipliers = skew(cfg.num_cells(), 16, 2.5);
            let mut hourly = BalancerConfig::default();
            hourly.interval_s = 3600.0;
            cfg.ctrl = Some(lite_ctrl(300.0, false, hourly));
        }
        Workload::DenseSplitChaos => {
            cfg.instances = 256;
            cfg.cell_size = 16;
            cfg.workload = WorkloadSpec::multi_tenant_demo(1.5);
            cfg.failure_acceleration = 2_000.0;
            cfg.serving = ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance);
            cfg.cell_rate_multipliers = skew(cfg.num_cells(), 2, 2.0);
            cfg.ctrl = Some(lite_ctrl(5.0, true, BalancerConfig::default()));
            cfg.telemetry = TelemetryConfig {
                series_dt_us: 60_000_000,
                per_cell_series: false,
                trace_every: 64,
                profile: false,
            };
        }
        Workload::TcoGrid => unreachable!("tco_grid builds its configs from the design grid"),
    }
    cfg
}

/// Config construction, chaos compile and validation of a single-fleet
/// workload — the set-up part of its pass.
fn fleet_config(w: Workload, seed: u64, sp: &mut Spans) -> Result<FleetConfig, String> {
    let mut cfg = sp.time("config", || base_config(w));
    if w == Workload::DenseSplitChaos {
        let campaign = Campaign::demo(CampaignKind::RackOutages);
        cfg.chaos = sp.time("chaos.compile", || {
            guard(|| litegpu_chaos::compile(&cfg, &DomainPlan::default(), &campaign, seed))
        })?;
    }
    sp.time("fleet.validate", || guard(|| cfg.validate()))?;
    Ok(cfg)
}

/// Every fleet config one pass of `w` simulates, in run order.
pub fn configs(w: Workload, seed: u64) -> Result<Vec<FleetConfig>, String> {
    match w {
        Workload::TcoGrid => standard_grid()
            .iter()
            .map(|d| guard(|| d.fleet_config(&TCO_BASE)))
            .collect(),
        _ => Ok(vec![fleet_config(w, seed, &mut Spans::off())?]),
    }
}

/// Times one more set-up of `w` — the part of a pass before its first
/// simulation entry call — outside any pass, s. The result is dropped.
pub fn time_setup(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    match w {
        Workload::TcoGrid => drop(black_box(tco_setup(&mut Spans::off()))),
        _ => drop(black_box(fleet_config(w, seed, &mut Spans::off()))),
    }
    t0.elapsed().as_secs_f64()
}

/// One pass of `w` at `seed`.
pub fn pass(w: Workload, seed: u64, sp: &mut Spans) -> Pass {
    match w {
        Workload::TcoGrid => tco_pass(seed, sp),
        _ => fleet_pass(w, seed, sp),
    }
}

fn fleet_pass(w: Workload, seed: u64, sp: &mut Spans) -> Pass {
    let t0 = Instant::now();
    let root = sp.enter("pass");
    let setup = sp.enter("setup");
    let cfg = fleet_config(w, seed, sp);
    sp.exit(setup);
    let cfg = match cfg {
        Ok(c) => c,
        Err(e) => {
            sp.exit(root);
            return Pass::failed(1, format!("config: {e}"));
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t_sim = Instant::now();
    let run = sp.time("fleet.run", || {
        guard(|| run_sharded_full(&cfg, seed, cfg.num_cells(), w.threads()))
    });
    let sim_s = t_sim.elapsed().as_secs_f64();
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            sp.exit(root);
            return Pass::failed(1, format!("fleet run: {e}"));
        }
    };
    let report = sp.time("fleet.report_json", || run.report.to_json());
    let series = run
        .series
        .as_ref()
        .map(|s| sp.time("telemetry.series_render", || s.to_jsonl()));
    let trace_events = run.trace.as_ref().map_or(0, Vec::len);
    let trace = run
        .trace
        .as_mut()
        .map(|t| sp.time("telemetry.trace_render", || render_chrome_trace(t)));
    sp.exit(root);
    let total_s = t0.elapsed().as_secs_f64();

    // Untimed from here: checks, hashes, counts.
    let mut problems = checks::fleet_report(&run.report);
    let mut hashes = vec![("report", checks::fnv1a(report.as_bytes()))];
    let mut counts = fleet_counts(&run.report);
    counts.insert("chaos.events", cfg.chaos.events.len() as f64);
    if w == Workload::DenseSplitChaos {
        match (&series, &trace) {
            (Some(s), Some(t)) => {
                if let Err(e) = validate_json(t) {
                    problems.push(format!("trace is not valid JSON: {e}"));
                }
                hashes.push(("series", checks::fnv1a(s.as_bytes())));
                hashes.push(("trace", checks::fnv1a(t.as_bytes())));
                counts.insert("telemetry.series_bytes", s.len() as f64);
                counts.insert("telemetry.trace_bytes", t.len() as f64);
                counts.insert("telemetry.trace_events", trace_events as f64);
            }
            _ => problems.push("series or trace missing".into()),
        }
    }
    Pass {
        timing: Some(Timing {
            setup_s,
            total_s,
            sim_s,
            instance_ticks: cfg.instances as u64 * cfg.num_ticks() as u64,
        }),
        ops: 1,
        failed_ops: (!problems.is_empty()) as u64,
        problems,
        hashes,
        counts,
    }
}

/// The simulated statistics a speed-only change must leave identical.
fn fleet_counts(r: &FleetReport) -> Counts {
    let kv = r.kv_transfer.as_ref();
    let bal = r.balancer.as_ref();
    [
        ("fleet.arrived", r.arrived),
        ("fleet.completed", r.completed),
        ("fleet.rejected", r.rejected),
        ("fleet.retried", r.retried),
        ("fleet.decode_steps", r.decode_steps),
        ("fleet.generated_tokens", r.generated_tokens),
        ("fleet.failures", r.failures),
        ("fleet.spare_hits", r.spare_hits),
        ("fleet.spare_misses", r.spare_misses),
        ("ctrl.scale_ups", r.scale_ups),
        ("ctrl.scale_downs", r.scale_downs),
        (
            "ctrl.dvfs_retunes",
            r.dvfs.as_ref().map_or(0, |d| d.retunes),
        ),
        ("ctrl.routing_shed", r.routing_shed),
        ("ctrl.admission_shed", r.admission_shed),
        ("ctrl.spilled_cohorts", bal.map_or(0, |b| b.spilled_cohorts)),
        ("ctrl.spilled_requests", bal.map_or(0, |b| b.spilled_out)),
        ("ctrl.quota_clamped", bal.map_or(0, |b| b.quota_clamped)),
        ("kv.transfers", kv.map_or(0, |k| k.transfers)),
        ("kv.bytes_delivered", kv.map_or(0, |k| k.bytes_delivered)),
        (
            "kv.backpressure_stalls",
            kv.map_or(0, |k| k.backpressure_stalls),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .collect()
}

fn add_counts(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        *into.entry(k).or_default() += v;
    }
}

/// A sweep's points, or the indices of its failed candidates.
type Sweep = Result<Vec<FrontierPoint>, Vec<(usize, String)>>;

/// What `evaluate_sweep_with` records for one candidate.
fn frontier_point(
    d: &DesignPoint,
    model: &TcoModel,
    cfg: &FleetConfig,
    report: &FleetReport,
    sp: &mut Spans,
) -> Result<FrontierPoint, String> {
    let (breakdown, slo) = sp.time("tco.price", || {
        guard(|| breakdown_for(model, d.die_divisor, cfg, report).map(|b| (b, slo_tokens(report))))
    })?;
    let total_usd = breakdown.total_usd();
    Ok(FrontierPoint {
        design: *d,
        label: d.label(),
        gpu: report.gpu.clone(),
        instances: report.instances,
        cells: report.cells,
        spares: report.spares,
        availability: report.availability,
        generated_tokens: report.generated_tokens,
        slo_tokens: slo,
        slo_share: if report.generated_tokens == 0 {
            0.0
        } else {
            slo as f64 / report.generated_tokens as f64
        },
        energy_j: report.energy_j,
        energy_per_token_j: report.energy_per_token_j,
        breakdown,
        total_usd,
        usd_per_mtoken: (slo > 0).then(|| total_usd / slo as f64 * 1e6),
        on_frontier: false,
    })
}

/// The traced sweep: `evaluate_sweep_with`'s per-candidate public calls,
/// in its order, one span each. Returns the points (or the failed
/// candidate indices) and every candidate's fleet report, for the
/// untimed checks.
fn traced_sweep(
    designs: &[DesignPoint],
    model: &TcoModel,
    seed: u64,
    sp: &mut Spans,
) -> (Sweep, Vec<FleetReport>) {
    let mut points = Vec::with_capacity(designs.len());
    let mut reports = Vec::with_capacity(designs.len());
    let mut failed = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        let cand = sp.enter("tco.candidate");
        let one = (|| {
            let cfg = sp.time("tco.config", || guard(|| d.fleet_config(&TCO_BASE)))?;
            sp.time("fleet.validate", || guard(|| cfg.validate()))?;
            let run = sp.time("fleet.run", || {
                guard(|| run_sharded_full(&cfg, seed, cfg.num_cells(), 1))
            })?;
            let point = frontier_point(d, model, &cfg, &run.report, sp)?;
            Ok::<_, String>((point, run.report))
        })();
        sp.exit(cand);
        match one {
            Ok((p, r)) => {
                points.push(p);
                reports.push(r);
            }
            Err(e) => failed.push((i, e)),
        }
    }
    if !failed.is_empty() {
        return (Err(failed), reports);
    }
    let front = sp.time("tco.pareto", || pareto(&points));
    for i in front {
        points[i].on_frontier = true;
    }
    (Ok(points), reports)
}

fn tco_pass(seed: u64, sp: &mut Spans) -> Pass {
    let traced = sp.is_on();
    let t0 = Instant::now();
    let root = sp.enter("pass");
    let setup = sp.enter("setup");
    let (designs, model) = tco_setup(sp);
    sp.exit(setup);
    let n = designs.len() as u64;
    let setup_s = t0.elapsed().as_secs_f64();
    let t_sim = Instant::now();
    let sim = sp.enter("tco.sim");
    // `evaluate_sweep_with` runs the candidates on a scoped worker
    // thread even with one worker, so the traced replay runs on one too:
    // on the main thread the candidates allocate from glibc's main arena
    // and run at another speed.
    let (points, reports) = if traced {
        std::thread::scope(|s| s.spawn(|| traced_sweep(&designs, &model, seed, sp)).join())
            .unwrap_or_else(|_| (Err(vec![(0, "sweep thread panicked".into())]), Vec::new()))
    } else {
        let points = guard(|| evaluate_sweep_with(&designs, &TCO_BASE, &model, seed, 1, &|_| {}));
        (points.map_err(|e| vec![(0, e)]), Vec::new())
    };
    sp.exit(sim);
    let sim_s = t_sim.elapsed().as_secs_f64();
    let points = match points {
        Ok(p) => p,
        Err(failed) => {
            sp.exit(root);
            let msgs: Vec<String> = failed
                .iter()
                .map(|(i, e)| format!("candidate {i}: {e}"))
                .collect();
            // The public sweep fails whole; the traced one per candidate.
            let bad = if traced { failed.len() as u64 } else { n };
            return Pass {
                ops: n,
                failed_ops: bad,
                problems: msgs,
                ..Pass::default()
            };
        }
    };
    let (report, json) = sp.time("tco.report_json", || {
        let r = TcoReport::new(seed, TCO_BASE, model, points);
        let json = r.to_json();
        (r, json)
    });
    sp.exit(root);
    let total_s = t0.elapsed().as_secs_f64();

    let mut bad = checks::tco_report(&report);
    let mut counts = Counts::new();
    for (i, r) in reports.iter().enumerate() {
        bad.extend(checks::fleet_report(r).into_iter().map(|m| (Some(i), m)));
        add_counts(&mut counts, &fleet_counts(r));
    }
    let whole = bad.iter().any(|(i, _)| i.is_none()) || report.points.len() as u64 != n;
    let mut blamed: Vec<usize> = bad.iter().filter_map(|(i, _)| *i).collect();
    blamed.sort_unstable();
    blamed.dedup();
    counts.insert("tco.candidates", report.points.len() as f64);
    counts.insert("tco.frontier_points", report.frontier.len() as f64);
    Pass {
        timing: Some(Timing {
            setup_s,
            total_s,
            sim_s,
            instance_ticks: designs
                .iter()
                .filter_map(|d| d.fleet_config(&TCO_BASE).ok())
                .map(|c| c.instances as u64 * c.num_ticks() as u64)
                .sum(),
        }),
        ops: n,
        failed_ops: if whole { n } else { blamed.len() as u64 },
        problems: bad.into_iter().map(|(_, m)| m).collect(),
        hashes: vec![("tco_report", checks::fnv1a(json.as_bytes()))],
        counts,
    }
}

/// `tco_grid`'s set-up: design-grid expansion and the cost model.
fn tco_setup(sp: &mut Spans) -> (Vec<DesignPoint>, TcoModel) {
    sp.time("tco.grid", || (standard_grid(), TcoModel::paper_default()))
}

/// The clock grid `run_sharded_full` prices for `cfg`.
fn clocks_for(cfg: &FleetConfig) -> Vec<f64> {
    if cfg.dvfs_enabled() || cfg.chaos.has_thermal() {
        litegpu_cluster::power_mgmt::operating_points()
    } else {
        vec![1.0]
    }
}

/// One standalone `StepCostTable::build_with_clocks` per fleet run,
/// identical to the build inside the engine, each in a `roofline.build`
/// span. Returns the builds' counts.
pub fn roofline_probes(cfgs: &[FleetConfig], sp: &mut Spans) -> Result<Counts, String> {
    let mut entries = 0usize;
    for cfg in cfgs {
        let clocks = clocks_for(cfg);
        let t = sp.time("roofline.build", || {
            guard(|| {
                StepCostTable::build_with_clocks(
                    &cfg.gpu,
                    &cfg.arch,
                    cfg.gpus_per_instance,
                    &cfg.params,
                    &clocks,
                )
            })
        })?;
        entries += t.num_clocks() * t.grid_len();
    }
    Ok(Counts::from([
        ("roofline.builds", cfgs.len() as f64),
        ("roofline.grid_entries", entries as f64),
    ]))
}

/// Re-runs every fleet config with the engine's phase profiler on and
/// reads its call counts: the chaos phase runs once per processed
/// cell-tick. Returns the processed and total cell-tick counts and each
/// run's report hash. The profiler's times are not used.
pub fn processed_cell_ticks(
    w: Workload,
    cfgs: &[FleetConfig],
    seed: u64,
) -> Result<(u64, u64, Vec<u64>), String> {
    let (mut processed, mut total, mut hashes) = (0u64, 0u64, Vec::new());
    for cfg in cfgs {
        let mut cfg = cfg.clone();
        cfg.telemetry.profile = true;
        let run = guard(|| run_sharded_full(&cfg, seed, cfg.num_cells(), w.threads()))?;
        let profile = run.profile.ok_or("profiled run returned no profile")?;
        processed += profile.calls[PHASE_CHAOS];
        total += cfg.num_cells() as u64 * cfg.num_ticks() as u64;
        hashes.push(checks::fnv1a(run.report.to_json().as_bytes()));
    }
    Ok((processed, total, hashes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn workload_configs_have_the_stated_shape() {
        let big = configs(Workload::Fleet100kSparse, 1).expect("valid");
        assert_eq!((big[0].instances, big[0].num_cells()), (100_000, 1563));
        let dense = configs(Workload::DenseSplitChaos, 1).expect("valid");
        assert_eq!((dense[0].instances, dense[0].num_cells()), (256, 16));
        assert!(!dense[0].chaos.events.is_empty());
        assert_eq!(configs(Workload::TcoGrid, 1).expect("valid").len(), 48);
    }
}
