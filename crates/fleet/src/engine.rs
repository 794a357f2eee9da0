//! The sharded, thread-parallel fleet engine.
//!
//! The fleet is a set of *cells* (fixed groups of
//! [`FleetConfig::cell_size`] instances, each with its own hot-spare
//! pool — think rack or pod). Cells never interact, so any partition of
//! cells into shards, stepped on any number of threads, produces the same
//! merged totals: per-instance and per-(cell, tenant) RNG streams are
//! derived from `(seed, global index)`, all accumulators are integers,
//! and merging the per-worker accumulators is integer addition. That is
//! the engine's core guarantee — **same seed ⇒ byte-identical
//! [`FleetReport`] JSON at any shard and thread count** — and
//! `tests/fleet_determinism.rs` enforces it.
//!
//! Traffic is a multi-tenant [`WorkloadSpec`]: each tenant's arrivals are
//! drawn per *cell* from the tenant's own dedicated RNG stream (demand is
//! exogenous — it does not shrink when instances park or fail) and routed
//! over the cell's instances with exact integer largest-remainder
//! splitting, **in priority order**: `Interactive` tenants claim queue
//! room first, then `Batch`, then `BestEffort`. When the control plane's
//! admission control has revoked best-effort admission
//! ([`litegpu_ctrl::Command::SetAdmission`]), best-effort arrivals are
//! shed at the cell boundary and counted per tenant.
//!
//! When a control plane is configured ([`FleetConfig::ctrl`]), a
//! **control tick** runs between data ticks: each cell's
//! [`litegpu_ctrl::ControllerStack`] observes the cell (including
//! per-priority-class arrival counts) and issues commands — autoscaler
//! parks/activations (with warm/cold boot latency), power-gating of
//! parked instances, routing-weight refreshes, and admission changes.
//! All controller state is per-cell, lives inside the shard partition,
//! and draws from the cell's own RNG stream, so controlled runs keep the
//! byte-identical guarantee. Without a control plane every instance
//! (live or down — no router means stranded traffic) weighs equally in
//! the split.
//!
//! Shards only assign cells to worker threads (shard `s` goes to worker
//! `s mod threads`); each worker adds every cell it steps into one
//! accumulator set of its own, so result memory scales with `threads`,
//! not `shards`. Within a worker, cells step cell-major (the whole
//! horizon of one cell before the next), which keeps each cell's
//! working set hot in cache.
//! The per-cell hot loop is an **event-queue scheduler**, not a
//! per-tick scan: all timestamps are integer microseconds quantized to
//! the tick grid, each cell owns a binary-heap event queue
//! (`(tick, instance)` entries, ordered by timestamp then instance
//! index so ties drain in a total order), and the loop only *processes*
//! a tick when something is due there. The event sources are
//!
//! - **step completions** — instances holding queued or running work sit
//!   in a sorted busy list and are served every tick until idle again;
//! - **arrival cohorts** — each (cell, tenant) Poisson stream is
//!   pre-drawn over the horizon (same RNG draws, same order as the old
//!   per-tick engine, so the streams are bit-identical) into a sorted
//!   arrival schedule consumed by a cursor;
//! - **KV-transfer deliveries** — the phase-split link wakes the cell
//!   when its FIFO head lands (or every tick while the head is blocked
//!   on a full decode batch);
//! - **control ticks** — the periodic controller cadence, plus boot
//!   completions promoted on their own schedule;
//! - **chaos / lifecycle events** — instance failure and recovery
//!   times, campaign window edges (outage/partition/drain/thermal
//!   start and end), and repair-crew dispatch completions, all pushed
//!   as heap wakeups when their integer-µs times are computed.
//!
//! Between events, idle instances accrue nothing per tick: idle energy,
//! live-tick and clock-residency counters are billed **lazily** in
//! closed-form spans (`accrue_idle_span`) whenever an instance is next
//! touched — or when a mode/clock transition, series sample, or the
//! horizon end forces the span closed. Spurious wakeups are harmless by
//! construction (every phase is a no-op when nothing is due — exactly
//! what the per-tick engine executed on quiet ticks), so correctness
//! only ever hinges on *never missing* a due event; the equivalence
//! suite (`crates/bench/tests/engine_equivalence.rs`) pins the result
//! to the pre-refactor engine's bytes, and the hot path stays Poisson
//! arithmetic plus [`StepCostTable`] lookups, with no roofline
//! evaluation, no allocation beyond queue churn, and no locks.

use crate::report::{FleetReport, RunMeta, TenantMeta};
use crate::state::{
    CellState, FailureRates, InstanceState, KvLinkState, ServeKnobs, ShardTotals, TenantKnobs,
    TraceSink,
};
use crate::traffic::PoissonPlan;
use crate::workload::WorkloadSpec;
use crate::{FleetError, Result};
use litegpu_cluster::failure::FailureModel;
use litegpu_cluster::power_mgmt::{self, Policy};
use litegpu_ctrl::{
    apportion_into, BalancerConfig, CellObs, ClockPoint, Command, CtrlConfig, FleetCellObs,
    FleetController, FleetObs, InstanceObs, Mode, Phase, PhaseObs, PriorityClass,
};
use litegpu_roofline::{EngineParams, StepCostTable};
use litegpu_specs::power::{PowerModel, DVFS_EXPONENT};
use litegpu_specs::GpuSpec;
use litegpu_telemetry::profile::{
    PHASE_CHAOS, PHASE_CONTROL, PHASE_KV, PHASE_LIFECYCLE, PHASE_MERGE, PHASE_ROUTE, PHASE_SAMPLE,
    PHASE_SERVE,
};
use litegpu_telemetry::{
    MetricId, MetricKind, PhaseProfile, SeriesRecorder, SpanSampler, TraceEvent,
};
use litegpu_workload::{kv, ModelArch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Per-cell prefill→decode KV bandwidth budget for phase-split serving.
///
/// The budget models the slice of the cell's scale-out fabric that KV
/// streaming may claim: prefill instances inject their completed caches
/// onto one serialized link per cell, and transfers queue FIFO behind
/// each other. Defaults derive from the GPU's own network bandwidth via
/// [`KvLink::for_instance`], which is what makes the H100-vs-Lite trade
/// measurable: the paper's Table 1 scales per-GPU links down 4× while
/// instances carry 4× the GPUs, so the per-instance injection bandwidth
/// (and hence the default budget) only holds if network bandwidth scales
/// with GPU count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLink {
    /// Cell KV bandwidth, GB/s (decimal GB).
    pub bandwidth_gbps: f64,
    /// Outstanding-transfer backlog, in seconds of link time, beyond
    /// which the prefill pool stalls (back-pressure).
    pub max_backlog_s: f64,
}

impl KvLink {
    /// Fraction of one instance's aggregate injection bandwidth the KV
    /// stream may claim by default (the rest stays with tensor-parallel
    /// collectives).
    pub const DEFAULT_INJECTION_SHARE: f64 = 0.1;

    /// Default backlog threshold, seconds of link time.
    pub const DEFAULT_MAX_BACKLOG_S: f64 = 0.25;

    /// Derives the cell budget from the spec: one instance's aggregate
    /// injection bandwidth (`gpus × net_bw`) × the KV share. Both demo
    /// fleets land on the same number (2×450 = 8×112.5 GB/s) — the §2
    /// condition that network bandwidth scale with GPU count, met by
    /// Table 1's Lite design.
    pub fn for_instance(gpu: &GpuSpec, gpus_per_instance: u32) -> Self {
        Self {
            bandwidth_gbps: gpu.net_bw_gbps
                * gpus_per_instance as f64
                * Self::DEFAULT_INJECTION_SHARE,
            max_backlog_s: Self::DEFAULT_MAX_BACKLOG_S,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.bandwidth_gbps.is_finite() && self.bandwidth_gbps > 0.0) {
            return Err(FleetError::InvalidParameter {
                name: "kv_link.bandwidth_gbps",
                value: self.bandwidth_gbps,
            });
        }
        if !(self.max_backlog_s.is_finite() && self.max_backlog_s > 0.0) {
            return Err(FleetError::InvalidParameter {
                name: "kv_link.max_backlog_s",
                value: self.max_backlog_s,
            });
        }
        Ok(())
    }
}

/// The kind of a scheduled correlated-failure (chaos) event, mirroring
/// `litegpu_cluster::domain::DomainKind`'s correlated kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainEventKind {
    /// A whole rack goes dark: every affected instance is forced down
    /// for the event window and queues for a repair crew at window end.
    RackLoss,
    /// A power-domain (breaker group) trip — same mechanics as
    /// [`DomainEventKind::RackLoss`] over a larger instance set.
    PowerDomainLoss,
    /// The affected instances' cells are cut off from the front door:
    /// arrivals to those cells are shed for the window (instances keep
    /// serving already-queued work).
    NetworkPartition,
    /// A cooling excursion clamps the affected instances' clocks to at
    /// most `clamp` (as a fraction of nominal) for the window, priced
    /// through the DVFS operating-point grid.
    ThermalExcursion {
        /// Maximum sustainable clock factor during the excursion.
        clamp: f64,
    },
    /// A planned rolling upgrade: affected instances are drained (no new
    /// routing or KV deliveries; queued work keeps serving) for the
    /// window, then restored.
    RollingDrain,
}

impl DomainEventKind {
    /// Index into the `by_kind` failure-breakdown array (shared with
    /// `litegpu_cluster::domain::DomainKind::index`).
    fn breakdown_index(&self) -> usize {
        match self {
            DomainEventKind::RackLoss => 1,
            DomainEventKind::PowerDomainLoss => 2,
            DomainEventKind::NetworkPartition => 3,
            DomainEventKind::ThermalExcursion { .. } => 4,
            DomainEventKind::RollingDrain => 1, // Unused: drains are not failures.
        }
    }
}

/// One scheduled chaos event over the window `[start_us, end_us)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainEvent {
    /// What happens.
    pub kind: DomainEventKind,
    /// Window start, µs of simulated time.
    pub start_us: u64,
    /// Window end, µs (exclusive).
    pub end_us: u64,
    /// Global instance indices affected. For
    /// [`DomainEventKind::NetworkPartition`] the *cells* containing these
    /// instances are partitioned whole.
    pub instances: Vec<u32>,
}

/// A compiled chaos campaign: the full, deterministic event schedule.
/// Compiled once from `(config, campaign, seed)` before sharding — every
/// shard sees the same schedule, so the byte-identical-report guarantee
/// holds under chaos too. `litegpu-chaos` is the campaign compiler; an
/// empty spec (the default) runs the fleet without correlated events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSpec {
    /// Scheduled events, in any order.
    pub events: Vec<DomainEvent>,
}

impl ChaosSpec {
    /// Whether any event clamps clocks (forces pricing the DVFS grid).
    pub fn has_thermal(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, DomainEventKind::ThermalExcursion { .. }))
    }
}

/// How the fleet divides the two inference phases — the fleet-scale
/// analogue of `litegpu_sim::SchedulerKind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingMode {
    /// Every instance interleaves prefill and decode (continuous
    /// batching), so prefill launches stretch decode token gaps.
    Monolithic,
    /// Splitwise/DistServe-style: each cell partitions its instances
    /// into a prefill pool and a decode pool; completed prefills stream
    /// their KV caches over the cell's [`KvLink`], whose queueing delay
    /// lands in TTFT and whose saturation back-pressures the prefill
    /// pool. Decode TBT books stay isolated from prefill interference.
    PhaseSplit {
        /// Fraction of each cell's instances reserved for prefill, in
        /// `(0, 1)` (at least one slot per pool is always kept). The
        /// phase-aware autoscaler rebalances from this starting split.
        prefill_fraction: f64,
        /// The cell's KV bandwidth budget.
        kv_link: KvLink,
    },
}

impl ServingMode {
    /// Phase-split with demo defaults: a 25% prefill pool and the
    /// spec-derived KV link.
    pub fn split_demo(gpu: &GpuSpec, gpus_per_instance: u32) -> Self {
        ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink::for_instance(gpu, gpus_per_instance),
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            ServingMode::Monolithic => "monolithic".to_string(),
            ServingMode::PhaseSplit {
                prefill_fraction,
                kv_link,
            } => format!(
                "phase-split(prefill={prefill_fraction:.2},kv={:.0}GB/s)",
                kv_link.bandwidth_gbps
            ),
        }
    }
}

/// Observability knobs. All layers default off and none of them may
/// change a single report byte: series and traces are integer records of
/// simulation state merged deterministically ([`run_sharded_full`]
/// returns them beside the report), while the profile measures host
/// wall-clock and is exported only through non-determinism-diffed
/// artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Time-series sample window, integer µs of simulated time (0
    /// disables the series layer). Rounded to a whole number of ticks,
    /// minimum one tick.
    pub series_dt_us: u64,
    /// Also record per-cell copies of the key series metrics
    /// (`cell{i}/...` — fleet-wide metrics are always recorded).
    pub per_cell_series: bool,
    /// Trace 1 in `trace_every` request spans (0 disables request spans
    /// and, together with the control/chaos events, the trace layer).
    pub trace_every: u32,
    /// Record per-phase engine wall-clock into a [`PhaseProfile`].
    pub profile: bool,
}

impl TelemetryConfig {
    /// Whether any deterministic layer (series or trace) is on.
    pub fn observes(&self) -> bool {
        self.series_dt_us > 0 || self.trace_every > 0
    }
}

/// A complete fleet-simulation configuration.
///
/// Start from a preset ([`FleetConfig::lite_demo`] /
/// [`FleetConfig::h100_demo`]) and override fields; `run*` validates on
/// entry.
///
/// # Examples
///
/// ```
/// use litegpu_fleet::engine::{run, FleetConfig};
///
/// let mut cfg = FleetConfig::lite_demo();
/// cfg.instances = 16;
/// cfg.cell_size = 8;      // two cells, each with its own spare pool
/// cfg.horizon_s = 600.0;  // 10 simulated minutes
/// let report = run(&cfg, 42).unwrap();
/// assert_eq!(report.instances, 16);
/// assert!(report.completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// GPU type.
    pub gpu: GpuSpec,
    /// Model served.
    pub arch: ModelArch,
    /// Roofline parameters (timing + default SLOs; tenants may override
    /// their own SLO targets).
    pub params: EngineParams,
    /// Model instances in the fleet.
    pub instances: u32,
    /// GPUs per instance.
    pub gpus_per_instance: u32,
    /// Instances per repair cell (each cell has its own spare pool).
    pub cell_size: u32,
    /// GPU-sized hot spares per cell.
    pub spares_per_cell: u32,
    /// Repair crews per cell: finite workers serving the integer-µs
    /// repair queue (spare replenishment and in-place recoveries). Jobs
    /// beyond the crew count wait, so repair backlog and spare
    /// starvation interact.
    pub repair_crews_per_cell: u32,
    /// Scheduled correlated-failure events (chaos campaign). Empty by
    /// default; compile campaigns with the `litegpu-chaos` crate.
    pub chaos: ChaosSpec,
    /// The multi-tenant workload (tenants, shares, patterns, priorities,
    /// SLOs). Legacy single-source configs convert with
    /// `TrafficModel::into()`.
    pub workload: WorkloadSpec,
    /// Per-cell arrival-rate multipliers for skewed load (hot/cold
    /// cells). Empty means uniform (1.0 everywhere); otherwise the
    /// length must equal [`FleetConfig::num_cells`]. Cell `c`'s Poisson
    /// means are scaled by `cell_rate_multipliers[c]` — the knob the
    /// fleet-scope balancer headline experiments turn.
    pub cell_rate_multipliers: Vec<f64>,
    /// Hardware failure model (annualized rates; see
    /// `litegpu_cluster::failure`'s unit convention).
    pub failure: FailureModel,
    /// Failure-rate acceleration (1.0 = real AFR; larger compresses
    /// years of failure behaviour into short horizons).
    pub failure_acceleration: f64,
    /// Largest prompt batch per prefill launch.
    pub max_prefill_batch: u32,
    /// Queue capacity per instance; beyond it requests are shed.
    pub max_queue_per_instance: u32,
    /// Control plane (autoscaling, power gating, routing, admission);
    /// `None` runs the fixed fleet with uniform cell-level splitting.
    pub ctrl: Option<CtrlConfig>,
    /// How instances divide the two inference phases: monolithic
    /// continuous batching, or Splitwise-style prefill/decode pools with
    /// a per-cell KV-transfer budget.
    pub serving: ServingMode,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Simulation tick, seconds.
    pub tick_s: f64,
    /// Observability: time series, trace export, self-profiling (all off
    /// by default; none may change the report bytes).
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A 1000-instance H100 fleet (tensor-parallel pairs serving
    /// Llama3-70B) under single-tenant diurnal traffic with accelerated
    /// failures.
    pub fn h100_demo() -> Self {
        let gpu = litegpu_specs::catalog::h100();
        let failure = FailureModel::default_for(&gpu);
        Self {
            gpu,
            arch: litegpu_workload::models::llama3_70b(),
            params: EngineParams::paper_defaults(),
            instances: 1000,
            gpus_per_instance: 2,
            cell_size: 20,
            spares_per_cell: 1,
            repair_crews_per_cell: 2,
            chaos: ChaosSpec::default(),
            workload: WorkloadSpec::diurnal_demo(1.5),
            cell_rate_multipliers: Vec::new(),
            failure,
            failure_acceleration: 200.0,
            max_prefill_batch: 4,
            max_queue_per_instance: 10_000,
            ctrl: None,
            serving: ServingMode::Monolithic,
            horizon_s: 24.0 * 3600.0,
            tick_s: 1.0,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The Lite-GPU fleet with the same aggregate silicon: instances of
    /// 8 Lite-GPUs (¼-H100 dies). The failure model uses the same
    /// physical calibration (AFR per mm² of silicon), which the
    /// area-scaling default now applies to the Lite package.
    pub fn lite_demo() -> Self {
        let gpu = litegpu_specs::catalog::lite_base();
        let failure = FailureModel::default_for(&gpu);
        Self {
            gpu,
            gpus_per_instance: 8,
            failure,
            ..Self::h100_demo()
        }
    }

    /// The controlled H100 fleet: autoscaler + router, with parked
    /// instances only able to down-clock ([`Policy::DvfsAll`] — the
    /// monolithic-GPU limitation of §3).
    pub fn h100_ctrl_demo() -> Self {
        Self {
            ctrl: Some(CtrlConfig::demo(Policy::DvfsAll)),
            ..Self::h100_demo()
        }
    }

    /// The controlled Lite fleet: same autoscaler + router, but parked
    /// instances power off ([`Policy::GateToEfficiency`] — the per-unit
    /// gating Lite-GPU granularity enables).
    pub fn lite_ctrl_demo() -> Self {
        Self {
            ctrl: Some(CtrlConfig::demo(Policy::GateToEfficiency)),
            ..Self::lite_demo()
        }
    }

    /// Switches this configuration to phase-split serving with demo
    /// defaults (25% prefill pool, spec-derived KV link).
    pub fn with_phase_split(mut self) -> Self {
        self.serving = ServingMode::split_demo(&self.gpu, self.gpus_per_instance);
        self
    }

    /// Cells in the fleet.
    pub fn num_cells(&self) -> u32 {
        self.instances.div_ceil(self.cell_size)
    }

    /// Ticks in the horizon.
    pub fn num_ticks(&self) -> u32 {
        (self.horizon_s / self.tick_s).ceil() as u32
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64, bool); 9] = [
            ("instances", self.instances as f64, self.instances > 0),
            (
                "repair_crews_per_cell",
                self.repair_crews_per_cell as f64,
                self.repair_crews_per_cell > 0,
            ),
            (
                "gpus_per_instance",
                self.gpus_per_instance as f64,
                self.gpus_per_instance > 0,
            ),
            ("cell_size", self.cell_size as f64, self.cell_size > 0),
            (
                "max_prefill_batch",
                self.max_prefill_batch as f64,
                self.max_prefill_batch > 0,
            ),
            (
                "max_queue_per_instance",
                self.max_queue_per_instance as f64,
                self.max_queue_per_instance > 0,
            ),
            (
                "horizon_s",
                self.horizon_s,
                self.horizon_s.is_finite() && self.horizon_s > 0.0,
            ),
            (
                "tick_s",
                self.tick_s,
                self.tick_s.is_finite() && self.tick_s > 0.0 && self.tick_s <= 60.0,
            ),
            (
                "failure_acceleration",
                self.failure_acceleration,
                self.failure_acceleration.is_finite() && self.failure_acceleration >= 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(FleetError::InvalidParameter { name, value });
            }
        }
        for event in &self.chaos.events {
            if event.end_us <= event.start_us {
                return Err(FleetError::InvalidParameter {
                    name: "chaos event window (end_us must exceed start_us)",
                    value: event.end_us as f64,
                });
            }
            if let Some(&g) = event.instances.iter().find(|&&g| g >= self.instances) {
                return Err(FleetError::InvalidParameter {
                    name: "chaos event instance index",
                    value: g as f64,
                });
            }
            if let DomainEventKind::ThermalExcursion { clamp } = event.kind {
                if !(clamp.is_finite() && clamp > 0.0 && clamp <= 1.0) {
                    return Err(FleetError::InvalidParameter {
                        name: "thermal clamp (must be in (0, 1])",
                        value: clamp,
                    });
                }
            }
        }
        if !self.cell_rate_multipliers.is_empty() {
            if self.cell_rate_multipliers.len() != self.num_cells() as usize {
                return Err(FleetError::InvalidParameter {
                    name: "cell_rate_multipliers (length must equal num_cells)",
                    value: self.cell_rate_multipliers.len() as f64,
                });
            }
            if let Some(&m) = self
                .cell_rate_multipliers
                .iter()
                .find(|m| !(m.is_finite() && **m >= 0.0))
            {
                return Err(FleetError::InvalidParameter {
                    name: "cell_rate_multipliers (entries must be finite and >= 0)",
                    value: m,
                });
            }
        }
        self.workload.validate().map_err(FleetError::Workload)?;
        if let Some(ctrl) = &self.ctrl {
            ctrl.validate().map_err(FleetError::Ctrl)?;
        }
        if let ServingMode::PhaseSplit {
            prefill_fraction,
            kv_link,
        } = &self.serving
        {
            if !(prefill_fraction.is_finite() && *prefill_fraction > 0.0 && *prefill_fraction < 1.0)
            {
                return Err(FleetError::InvalidParameter {
                    name: "prefill_fraction",
                    value: *prefill_fraction,
                });
            }
            kv_link.validate()?;
            // Every cell needs at least one slot per pool: cells of one
            // instance cannot split.
            if self.cell_size < 2 || self.instances % self.cell_size == 1 {
                return Err(FleetError::InvalidParameter {
                    name: "cell_size (phase-split needs ≥ 2 instances per cell)",
                    value: self.cell_size as f64,
                });
            }
        }
        Ok(())
    }

    fn knobs(&self) -> ServeKnobs {
        let default_ttft_us = (self.params.constraints.ttft_max_s * 1e6).round() as u64;
        let default_tbt_us = (self.params.constraints.tbt_max_s * 1e6).round() as u64;
        let default_prompt = self.params.constraints.prompt_len.max(1);
        let kv_bytes_per_token = kv::bytes_per_token(&self.arch, self.params.precision);
        ServeKnobs {
            tick_us: (self.tick_s * 1e6).round() as u64,
            max_prefill_batch: self.max_prefill_batch,
            max_queue: self.max_queue_per_instance,
            tenants: self
                .workload
                .tenants
                .iter()
                .map(|t| {
                    let prompt = t.prompt_len_mean.unwrap_or(default_prompt).max(1);
                    TenantKnobs {
                        ttft_slo_us: t
                            .ttft_slo_s
                            .map_or(default_ttft_us, |s| (s * 1e6).round() as u64),
                        tbt_slo_us: t
                            .tbt_slo_s
                            .map_or(default_tbt_us, |s| (s * 1e6).round() as u64),
                        output_len: t.output_len,
                        prefill_num: prompt,
                        prefill_den: default_prompt,
                        kv_bytes_per_req: (prompt as f64 * kv_bytes_per_token).round() as u64,
                    }
                })
                .collect(),
        }
    }

    fn failure_rates(&self) -> FailureRates {
        let per_hour = self
            .failure
            .failures_per_instance_hour(&self.gpu, self.gpus_per_instance)
            * self.failure_acceleration;
        FailureRates {
            mean_interval_us: if per_hour > 0.0 {
                3600.0e6 / per_hour
            } else {
                0.0
            },
            swap_us: (self.failure.spare_swap_hours * 3600.0e6).round() as u64,
            repair_us: (self.failure.mttr_hours * 3600.0e6).round() as u64,
        }
    }

    /// Whether the control plane runs the serving-time DVFS policy (which
    /// is what makes the engine price a full clock grid).
    pub fn dvfs_enabled(&self) -> bool {
        self.ctrl.as_ref().is_some_and(|c| c.dvfs.is_some())
    }

    /// Integer per-instance power rates (mW), for exact energy
    /// accumulation: `energy_µJ = power_mW × time_µs / 1000`. Dynamic
    /// power is priced per operating point on the same cubic
    /// `P_dyn ∝ clock³` curve `power_mgmt::power_at_load` draws from
    /// ([`PowerModel::power_w`]); the idle floor is clock-independent.
    fn instance_power(&self, clock_points: &[f64]) -> InstancePower {
        let model = PowerModel::for_spec(&self.gpu);
        let g = self.gpus_per_instance as f64;
        InstancePower {
            idle_mw: (model.idle_w * g * 1000.0).round() as u64,
            dyn_mw: clock_points
                .iter()
                .map(|&c| (model.dynamic_w * g * 1000.0 * c.powf(DVFS_EXPONENT)).round() as u64)
                .collect(),
        }
    }

    /// Sustainable request throughput of one instance at clock point
    /// `ci`, requests/s — the capacity estimate the autoscaler sizes
    /// cells against (at nominal) and DVFS scales per point: per-request
    /// cost is an amortized prefill launch (scaled by the workload's
    /// share-weighted mean prompt length, matching what
    /// `TenantKnobs::prefill_cost_us` actually charges) plus the
    /// share-weighted mean output length in decode steps at full batch.
    fn capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let b = self
            .max_prefill_batch
            .min(lut.max_prefill_batch)
            .min(lut.max_batch)
            .max(1);
        let prompt_scale = self
            .workload
            .mean_prompt_scale(self.params.constraints.prompt_len);
        let per_req_us = lut.prefill_us_at(ci, b) as f64 * prompt_scale / b as f64
            + self.workload.mean_output_len() * lut.decode_step_us_at(ci, lut.max_batch) as f64
                / lut.max_batch as f64;
        1e6 / per_req_us.max(1.0)
    }

    /// [`Self::capacity_rps_at`] at the nominal clock.
    fn capacity_rps(&self, lut: &StepCostTable) -> f64 {
        self.capacity_rps_at(lut, lut.nominal_clock_idx())
    }

    /// Sustainable request throughput of one *dedicated prefill* instance
    /// at clock point `ci`, requests/s — the prefill half of
    /// [`Self::capacity_rps_at`].
    fn prefill_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let b = self.max_prefill_batch.min(lut.max_prefill_batch).max(1);
        let prompt_scale = self
            .workload
            .mean_prompt_scale(self.params.constraints.prompt_len);
        1e6 / (lut.prefill_us_at(ci, b) as f64 * prompt_scale / b as f64).max(1.0)
    }

    /// Sustainable request throughput of one *dedicated decode* instance
    /// at clock point `ci`, requests/s — the decode half of
    /// [`Self::capacity_rps_at`].
    fn decode_capacity_rps_at(&self, lut: &StepCostTable, ci: usize) -> f64 {
        let per_req_us = self.workload.mean_output_len()
            * lut.decode_step_us_at(ci, lut.max_batch) as f64
            / lut.max_batch as f64;
        1e6 / per_req_us.max(1.0)
    }

    /// The DVFS operating points as controllers observe them: per-point
    /// throughput scales per serving role (exactly the capacity model
    /// above, so policy and pricing cannot disagree) and SLO-feasibility
    /// guards against the tightest per-tenant targets. A decode point is
    /// feasible while a full-batch step still meets every tenant's TBT
    /// SLO; a prefill point while every tenant's prompt-scaled launch
    /// fits half its TTFT budget (the other half stays reserved for
    /// queueing). Empty on nominal-only tables.
    fn clock_obs(&self, lut: &StepCostTable, knobs: &ServeKnobs) -> Vec<ClockPoint> {
        if lut.num_clocks() < 2 {
            return Vec::new();
        }
        let nom = lut.nominal_clock_idx();
        let pb = self
            .max_prefill_batch
            .min(lut.max_prefill_batch)
            .min(lut.max_batch)
            .max(1);
        let mixed_nom = self.capacity_rps_at(lut, nom);
        let prefill_nom = self.prefill_capacity_rps_at(lut, nom);
        let decode_nom = self.decode_capacity_rps_at(lut, nom);
        lut.clock_points()
            .iter()
            .enumerate()
            .map(|(ci, &clock)| ClockPoint {
                clock,
                mixed_scale: self.capacity_rps_at(lut, ci) / mixed_nom,
                prefill_scale: self.prefill_capacity_rps_at(lut, ci) / prefill_nom,
                decode_scale: self.decode_capacity_rps_at(lut, ci) / decode_nom,
                prefill_slo_ok: knobs
                    .tenants
                    .iter()
                    .all(|t| t.prefill_cost_us(lut.prefill_us_at(ci, pb)) <= t.ttft_slo_us / 2),
                decode_slo_ok: knobs
                    .tenants
                    .iter()
                    .all(|t| lut.decode_step_us_at(ci, lut.max_batch) <= t.tbt_slo_us),
            })
            .collect()
    }

    fn tenant_meta(&self, knobs: &ServeKnobs) -> Vec<TenantMeta> {
        self.workload
            .tenants
            .iter()
            .zip(&knobs.tenants)
            .map(|(t, k)| TenantMeta {
                name: t.name.clone(),
                priority: t.priority,
                ttft_slo_s: k.ttft_slo_us as f64 / 1e6,
                tbt_slo_s: k.tbt_slo_us as f64 / 1e6,
            })
            .collect()
    }
}

/// Per-instance power rates in integer milliwatts. Dynamic power is one
/// rate per DVFS operating point (cubic in clock); nominal is the last.
#[derive(Debug, Clone)]
struct InstancePower {
    idle_mw: u64,
    dyn_mw: Vec<u64>,
}

/// Phase-split context derived once per run (integer link parameters +
/// per-phase capacities for the phase-aware autoscaler).
#[derive(Debug, Clone, Copy)]
struct SplitShared {
    prefill_fraction: f64,
    /// Cell link bandwidth, integer bytes/second.
    kv_bytes_per_s: u64,
    /// Back-pressure threshold, µs of link time.
    kv_max_backlog_us: u64,
    prefill_capacity_rps: f64,
    decode_capacity_rps: f64,
}

impl SplitShared {
    /// The static per-cell pool split: at least one slot per pool.
    fn prefill_slots(&self, cell_slots: usize) -> usize {
        ((cell_slots as f64 * self.prefill_fraction).round() as usize).clamp(1, cell_slots - 1)
    }
}

/// Read-only per-run context shared by every shard.
struct Shared<'a> {
    cfg: &'a FleetConfig,
    lut: &'a StepCostTable,
    knobs: ServeKnobs,
    rates: FailureRates,
    power: InstancePower,
    cap_rps: f64,
    /// DVFS operating points as controllers observe them (empty on
    /// nominal-only runs).
    clock_points: Vec<ClockPoint>,
    /// Index of the nominal clock point in the step-cost table.
    nominal_ci: u8,
    /// Phase-split parameters (`None` for monolithic serving).
    split: Option<SplitShared>,
    /// Tenant indices in admission order (priority class, then
    /// declaration order).
    priority_order: Vec<u16>,
    /// Tenant priority classes, indexed by tenant id.
    classes: Vec<PriorityClass>,
    /// Per-tenant per-tick arrival mean per instance
    /// (`lambda[tenant][tick]`), precomputed once per run.
    lambda: Vec<Vec<f64>>,
    /// Pre-resolved Poisson draws (`plans[tenant][tick]`) for a
    /// full-size cell (`cell_size` instances): the λ ≤ 0 sentinel and
    /// the `e^-λ` thresholds are computed once per run instead of once
    /// per (cell, tick). Cells of any other size (the tail cell, or a
    /// fleet smaller than one cell) build their own local table.
    arr_plans: Vec<Vec<PoissonPlan>>,
    /// Per-cell slices of the compiled chaos schedule (empty when the
    /// config has no chaos events).
    chaos: Vec<CellChaos>,
    /// Series window length in whole ticks (0: no series). The trailing
    /// partial window is dropped; integer-derived once, so every worker
    /// agrees on the grid.
    series_every: u32,
}

/// One cell's slice of the compiled chaos schedule. Computed from the
/// global [`ChaosSpec`] before sharding, so domain membership never
/// depends on the shard/thread layout; instance indices are cell-local.
#[derive(Debug, Clone, Default)]
struct CellChaos {
    /// Outage events: (breakdown kind index, start_us, end_us, locals).
    outages: Vec<(usize, u64, u64, Vec<u32>)>,
    /// Partition windows covering this cell (partitions cut whole cells).
    partitions: Vec<(u64, u64)>,
    /// Thermal events: (start_us, end_us, clamp clock index, locals).
    thermals: Vec<(u64, u64, u8, Vec<u32>)>,
    /// Drain windows: (start_us, end_us, locals).
    drains: Vec<(u64, u64, Vec<u32>)>,
}

impl CellChaos {
    fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.partitions.is_empty()
            && self.thermals.is_empty()
            && self.drains.is_empty()
    }
}

/// Splits the global chaos schedule into per-cell slices.
fn compile_cell_chaos(cfg: &FleetConfig, clock_points: &[f64]) -> Vec<CellChaos> {
    if cfg.chaos.events.is_empty() {
        return Vec::new();
    }
    let cells = cfg.num_cells() as usize;
    let mut out = vec![CellChaos::default(); cells];
    for event in &cfg.chaos.events {
        let mut by_cell: Vec<Vec<u32>> = vec![Vec::new(); cells];
        for &g in &event.instances {
            let c = (g / cfg.cell_size) as usize;
            by_cell[c].push(g - c as u32 * cfg.cell_size);
        }
        for (c, locals) in by_cell.into_iter().enumerate() {
            if locals.is_empty() {
                continue;
            }
            let (s, e) = (event.start_us, event.end_us);
            match event.kind {
                DomainEventKind::RackLoss | DomainEventKind::PowerDomainLoss => {
                    out[c]
                        .outages
                        .push((event.kind.breakdown_index(), s, e, locals));
                }
                DomainEventKind::NetworkPartition => out[c].partitions.push((s, e)),
                DomainEventKind::ThermalExcursion { clamp } => {
                    out[c]
                        .thermals
                        .push((s, e, clamp_clock_idx(clock_points, clamp), locals));
                }
                DomainEventKind::RollingDrain => out[c].drains.push((s, e, locals)),
            }
        }
    }
    out
}

/// The clock-grid index a thermal clamp pins affected slots to: the
/// highest operating point not above the clamp, or the grid's lowest
/// point when the clamp undercuts the whole grid.
fn clamp_clock_idx(clock_points: &[f64], clamp: f64) -> u8 {
    let mut lowest = 0;
    let mut best: Option<usize> = None;
    for (i, &c) in clock_points.iter().enumerate() {
        if c < clock_points[lowest] {
            lowest = i;
        }
        if c <= clamp + 1e-9 && best.is_none_or(|b: usize| c > clock_points[b]) {
            best = Some(i);
        }
    }
    best.unwrap_or(lowest) as u8
}

/// Administrative state of one instance slot (orthogonal to the failure
/// lifecycle's up/down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotMode {
    Live,
    Warm,
    Cold,
    Booting { until_us: u64 },
}

/// Per-cell flow state the fleet balancer manages between fleet ticks:
/// the admission quota left for the current fleet window and the window
/// arrival counter published in the next [`FleetCellObs`] snapshot.
/// `quota_left == u64::MAX` means "unlimited" and is byte-inert — an
/// uncontrolled run never sheds on it and never reads `window_arrived`.
struct FlowCtl {
    quota_left: u64,
    window_arrived: u64,
}

impl Default for FlowCtl {
    fn default() -> Self {
        Self {
            quota_left: u64::MAX,
            window_arrived: 0,
        }
    }
}

/// One cell's tenant-tagged arrival machinery: a dedicated RNG stream per
/// tenant (inside the shard partition, so draws never depend on shard or
/// thread layout) plus the reusable routing buffers that keep the
/// per-tick hot loop allocation-free.
struct CellTraffic {
    rngs: Vec<StdRng>,
    eff: Vec<u64>,
    shares: Vec<u64>,
    scratch: Vec<(u128, u32)>,
}

impl CellTraffic {
    /// Distinct stream constant so per-(cell, tenant) arrival streams
    /// never alias the per-instance or cell-control streams.
    const STREAM: u64 = 0x7E4A_4D7A_11C0_FFEE;

    fn new(seed: u64, cell_idx: u32, n_tenants: usize, n_slots: usize) -> Self {
        Self {
            rngs: (0..n_tenants)
                .map(|t| {
                    StdRng::seed_from_u64(
                        seed ^ Self::STREAM
                            ^ (cell_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                            ^ (t as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB),
                    )
                })
                .collect(),
            eff: Vec::with_capacity(n_slots),
            shares: Vec::with_capacity(n_slots),
            scratch: Vec::with_capacity(n_slots),
        }
    }

    /// Draws the whole horizon of every tenant's exogenous arrivals up
    /// front, returning the non-empty batches as `(tick, tenant, count)`
    /// sorted by tick and, within a tick, by admission (priority) order.
    ///
    /// The per-(cell, tenant) RNG streams are independent, so drawing
    /// tenant-major here consumes each stream exactly as the tick-major
    /// per-tick draws did — the counts are bit-identical. Zero-count
    /// draws touched no simulation state in the tick loop (arrivals,
    /// admission and routing counters all moved only for `n > 0`), so
    /// dropping them here is also exact; it is what lets the event
    /// engine skip ticks in which no tenant's draw produced work.
    fn precompute_arrivals(
        &mut self,
        shared: &Shared<'_>,
        n_insts: usize,
        ticks: u32,
        scale: f64,
    ) -> Vec<(u32, u16, u64)> {
        let local: Option<Vec<Vec<PoissonPlan>>> = (n_insts != shared.cfg.cell_size as usize
            || scale != 1.0)
            .then(|| plan_arrivals(&shared.lambda, n_insts as f64 * scale));
        let mut evs: Vec<(u32, u16, u16, u64)> = Vec::new();
        for (pos, &ti) in shared.priority_order.iter().enumerate() {
            let t = ti as usize;
            let plans = local.as_ref().map_or(&shared.arr_plans[t], |l| &l[t]);
            let rng = &mut self.rngs[t];
            for (k, plan) in plans.iter().enumerate().take(ticks as usize) {
                let n = plan.draw(rng);
                if n > 0 {
                    evs.push((k as u32, pos as u16, ti, n));
                }
            }
        }
        evs.sort_unstable_by_key(|&(k, pos, _, _)| (k, pos));
        evs.into_iter().map(|(k, _, ti, n)| (k, ti, n)).collect()
    }

    /// Routes one tick's precomputed arrival batches over the cell in
    /// priority order with exact largest-remainder splits. Controlled
    /// cells route over live instances by the (control-tick-stale)
    /// weights and apply admission control; uncontrolled cells split
    /// uniformly over **all** instances — no router means a down
    /// instance's share queues behind it (stranded traffic, exactly what
    /// the router exists to fix). Under phase-split serving, queue room
    /// is granted to the prefill pool only: decode instances receive
    /// their work over the KV link, never the front door. Chaos hooks: a
    /// partitioned cell sheds every arrival at the front door
    /// (attributed to `partition_shed`), and drained slots take no new
    /// routing regardless of controller presence — a drain is a planned,
    /// announced exclusion, unlike a silent failure. `on_admit(i)` fires
    /// for every slot that admitted work (the event engine's busy-set
    /// hook). `flow` carries the fleet balancer's admission quota: once
    /// a window's quota is spent, further guaranteed-class arrivals are
    /// shed at the boundary (counted as `quota_clamped` inside
    /// `admission_shed`); an unlimited quota is byte-inert.
    #[allow(clippy::too_many_arguments)]
    fn route_event(
        &mut self,
        tick: u32,
        shared: &Shared<'_>,
        mut ctl: Option<&mut CellCtl>,
        phases: &[Phase],
        insts: &mut [InstanceState],
        partitioned: bool,
        drained: &[bool],
        acc: &mut ShardTotals,
        flow: &mut FlowCtl,
        batches: &[(u32, u16, u64)],
        mut on_admit: impl FnMut(usize),
    ) {
        self.eff.clear();
        match ctl {
            Some(ref c) => self.eff.extend(
                c.modes
                    .iter()
                    .zip(insts.iter())
                    .zip(&c.weights)
                    .zip(phases)
                    .zip(drained)
                    .map(|((((m, inst), &w), &p), &d)| {
                        if *m == SlotMode::Live && inst.up && p != Phase::Decode && !d {
                            w
                        } else {
                            0
                        }
                    }),
            ),
            None => self.eff.extend(
                phases
                    .iter()
                    .zip(drained)
                    .map(|(&p, &d)| u64::from(p != Phase::Decode && !d)),
            ),
        }
        let allow_be = ctl.as_ref().is_none_or(|c| c.allow_best_effort);
        let any_target = !partitioned && self.eff.iter().any(|&w| w > 0);
        for &(_, ti, n) in batches {
            let t = ti as usize;
            acc.arrived += n;
            acc.per_tenant[t].arrived += n;
            flow.window_arrived += n;
            let class = shared.classes[t];
            if let Some(c) = ctl.as_deref_mut() {
                c.arrived_since += n;
                c.arrived_by_class[class.index()] += n;
            }
            if class == PriorityClass::BestEffort && !allow_be {
                acc.rejected += n;
                acc.admission_shed += n;
                acc.per_tenant[t].shed += n;
                continue;
            }
            // Fleet admission quota: shed whatever exceeds the window's
            // remaining budget at the boundary. `u64::MAX` (no balancer,
            // or no quota directive) never sheds.
            let n = if flow.quota_left >= n {
                flow.quota_left -= n;
                n
            } else {
                let shed = n - flow.quota_left;
                flow.quota_left = 0;
                acc.rejected += shed;
                acc.admission_shed += shed;
                acc.quota_clamped += shed;
                acc.per_tenant[t].shed += shed;
                n - shed
            };
            if n == 0 {
                continue;
            }
            if !any_target {
                acc.rejected += n;
                acc.routing_shed += n;
                if partitioned {
                    acc.partition_shed += n;
                }
                acc.per_tenant[t].shed += n;
                continue;
            }
            apportion_into(n, &self.eff, &mut self.shares, &mut self.scratch);
            for (i, &share) in self.shares.iter().enumerate() {
                if share > 0 {
                    let admitted = insts[i].push_arrivals(tick, share, ti, &shared.knobs, acc);
                    acc.routed += admitted;
                    acc.per_tenant[t].routed += admitted;
                    if admitted > 0 && insts[i].up {
                        on_admit(i);
                    }
                }
            }
        }
    }
}

/// Builds the `plans[tenant][tick]` Poisson table for cells of
/// `n_insts` instances from the per-instance means.
fn plan_arrivals(lambda: &[Vec<f64>], n_insts: f64) -> Vec<Vec<PoissonPlan>> {
    lambda
        .iter()
        .map(|lt| lt.iter().map(|&l| PoissonPlan::new(l * n_insts)).collect())
        .collect()
}

/// One cell's control-plane runtime: the policy stack, the cell's own
/// RNG stream, and the administrative state the stack manages. Lives
/// entirely inside the shard partition.
struct CellCtl {
    stack: litegpu_ctrl::ControllerStack,
    rng: StdRng,
    /// Owning cell index (trace `pid`).
    cell: u32,
    modes: Vec<SlotMode>,
    weights: Vec<u64>,
    /// Per-slot DVFS operating point (index into the table's clock grid;
    /// all-nominal without a DVFS policy).
    clocks: Vec<u8>,
    arrived_since: u64,
    arrived_by_class: [u64; 3],
    allow_best_effort: bool,
    interval_ticks: u32,
    warm_up_us: u64,
    cold_up_us: u64,
}

impl CellCtl {
    /// Distinct stream constant so cell-control RNG streams never alias
    /// the per-instance streams (which mix with a different odd constant).
    const STREAM: u64 = 0x5EED_C311_0C7A_11E5;

    fn new(
        ctrl: &CtrlConfig,
        seed: u64,
        cell_idx: u32,
        n_slots: usize,
        tick_s: f64,
        nominal_ci: u8,
    ) -> Self {
        let rng = StdRng::seed_from_u64(
            seed ^ Self::STREAM ^ (cell_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let (warm_s, cold_s) = ctrl
            .autoscaler
            .map(|a| (a.warm_start_s, a.cold_start_s))
            .unwrap_or((0.0, 0.0));
        Self {
            stack: ctrl.build(),
            rng,
            cell: cell_idx,
            modes: vec![SlotMode::Live; n_slots],
            weights: vec![1; n_slots],
            clocks: vec![nominal_ci; n_slots],
            arrived_since: 0,
            arrived_by_class: [0; 3],
            allow_best_effort: true,
            interval_ticks: ((ctrl.control_interval_s / tick_s).round() as u32).max(1),
            warm_up_us: (warm_s * 1e6).round() as u64,
            cold_up_us: (cold_s * 1e6).round() as u64,
        }
    }

    /// Promotes slots whose activation completed by `now_us`.
    fn finish_boots(&mut self, now_us: u64) {
        for m in &mut self.modes {
            if matches!(m, SlotMode::Booting { until_us } if *until_us <= now_us) {
                *m = SlotMode::Live;
            }
        }
    }

    /// Runs one control tick: observe, consult the policy stack, apply.
    #[allow(clippy::too_many_arguments)]
    fn control(
        &mut self,
        tick: u32,
        t_start_us: u64,
        insts: &[InstanceState],
        phases: &mut [Phase],
        kv: Option<&KvLinkState>,
        shared: &Shared<'_>,
        chaos_down: u32,
        mut trace: Option<&mut TraceSink<'_>>,
        acc: &mut ShardTotals,
    ) {
        let mut obs = CellObs::new(tick, self.interval_ticks as f64 * shared.cfg.tick_s);
        obs.arrived_since_last = core::mem::take(&mut self.arrived_since);
        obs.arrived_by_class = core::mem::take(&mut self.arrived_by_class);
        obs.capacity_rps_per_instance = shared.cap_rps;
        obs.max_queue = shared.knobs.max_queue;
        obs.chaos_down = chaos_down;
        obs.phase_split = shared.split.as_ref().map(|s| PhaseObs {
            prefill_capacity_rps: s.prefill_capacity_rps,
            decode_capacity_rps: s.decode_capacity_rps,
            kv_backlog_us: kv.map_or(0, |k| k.backlog_us(t_start_us)),
        });
        obs.clock_points = shared.clock_points.clone();
        obs.slots = self
            .modes
            .iter()
            .zip(insts)
            .zip(phases.iter())
            .zip(&self.clocks)
            .map(|(((m, inst), &phase), &clock)| InstanceObs {
                mode: if !inst.up {
                    Mode::Down
                } else {
                    match m {
                        SlotMode::Live => Mode::Live,
                        SlotMode::Warm => Mode::Warm,
                        SlotMode::Cold => Mode::Cold,
                        SlotMode::Booting { .. } => Mode::Booting,
                    }
                },
                phase,
                clock,
                queued: inst.queued(),
                active: inst.active(),
            })
            .collect();
        // Every state-*changing* command becomes one control-plane trace
        // instant, emitted by the arm that applies it (so tracing costs
        // nothing on the no-op path). Policies re-assert idempotent
        // state each tick (the gater paints every parked slot cold, the
        // router re-sends unchanged weights); tracing only transitions
        // keeps every state change in the timeline without drowning it
        // — or the hot loop — in no-op re-assertions. Effectiveness is
        // pure cell-local sim state, so the filter stays shard-invariant.
        let (cell, tick_arg) = (self.cell, tick as u64);
        let trace_cmd = |ts: &mut Option<&mut TraceSink<'_>>, kind: &'static str, slot: u32| {
            if let Some(ts) = ts.as_deref_mut() {
                ts.buf.push(TraceEvent::instant(
                    "ctrl", kind, t_start_us, cell, slot, tick_arg,
                ));
            }
        };
        for cmd in self.stack.control(&obs, &mut self.rng) {
            match cmd {
                Command::Activate { slot } => {
                    let s = slot as usize;
                    if s >= self.modes.len() {
                        continue;
                    }
                    let boot_us = match self.modes[s] {
                        SlotMode::Warm => self.warm_up_us,
                        SlotMode::Cold => self.cold_up_us,
                        _ => continue,
                    };
                    self.modes[s] = if boot_us == 0 {
                        SlotMode::Live
                    } else {
                        SlotMode::Booting {
                            until_us: t_start_us.saturating_add(boot_us),
                        }
                    };
                    acc.scale_ups += 1;
                    trace_cmd(&mut trace, "activate", slot);
                }
                Command::Park { slot } => {
                    let s = slot as usize;
                    if s < insts.len()
                        && self.modes[s] == SlotMode::Live
                        && insts[s].up
                        && insts[s].is_idle()
                    {
                        // Parking alone keeps the instance powered at its
                        // idle floor; only a power-gating policy's SetCold
                        // (issued later in this same command batch) may
                        // drop it to zero draw. Without a gater, parked
                        // capacity correctly keeps paying the floor.
                        self.modes[s] = SlotMode::Warm;
                        acc.scale_downs += 1;
                        trace_cmd(&mut trace, "park", slot);
                    }
                }
                Command::SetWarm { slot } => {
                    if let Some(m @ SlotMode::Cold) = self.modes.get_mut(slot as usize) {
                        *m = SlotMode::Warm;
                        trace_cmd(&mut trace, "set_warm", slot);
                    }
                }
                Command::SetCold { slot } => {
                    if let Some(m @ SlotMode::Warm) = self.modes.get_mut(slot as usize) {
                        *m = SlotMode::Cold;
                        trace_cmd(&mut trace, "set_cold", slot);
                    }
                }
                Command::SetWeights { weights } if weights.len() == self.modes.len() => {
                    if trace.is_some() && weights != self.weights {
                        trace_cmd(&mut trace, "set_weights", u32::MAX);
                    }
                    self.weights = weights;
                }
                Command::SetAdmission { allow_best_effort } => {
                    if trace.is_some() && allow_best_effort != self.allow_best_effort {
                        trace_cmd(&mut trace, "set_admission", u32::MAX);
                    }
                    self.allow_best_effort = allow_best_effort;
                }
                Command::SetPhase { slot, phase } => {
                    // Phase moves apply only to idle slots: migrating a
                    // live KV batch or queued prompts between pools is
                    // not modeled, so busy slots converge as they drain.
                    let s = slot as usize;
                    if s < insts.len()
                        && shared.split.is_some()
                        && phases[s] != phase
                        && phase != Phase::Mixed
                        && insts[s].is_idle()
                    {
                        phases[s] = phase;
                        acc.phase_rebalances += 1;
                        trace_cmd(&mut trace, "set_phase", slot);
                    }
                }
                Command::SetClock { slot, clock } => {
                    // Retunes take effect at the next data tick; an
                    // out-of-grid index is a controller bug and ignored.
                    let s = slot as usize;
                    if s < insts.len()
                        && (clock as usize) < shared.lut.num_clocks()
                        && self.clocks[s] != clock
                    {
                        self.clocks[s] = clock;
                        acc.clock_retunes += 1;
                        trace_cmd(&mut trace, "set_clock", slot);
                    }
                }
                // `Command` is #[non_exhaustive]; a variant this engine
                // doesn't know is ignored (commands are advisory).
                _ => {}
            }
        }
    }
}

/// Delivers landed KV transfers into the decode pool, FIFO. A transfer
/// waits (head-of-line) until some live decode instance has batch room;
/// the target is the least-loaded live decode slot, ties to the lowest
/// index — a deterministic choice from cell-local state only. TTFT is
/// recorded here, so the wait for decode batch room lands in it.
/// `on_deliver(i)` fires per delivery with the target slot (the event
/// engine's busy-set hook).
#[allow(clippy::too_many_arguments)]
fn deliver_transfers(
    kv: &mut KvLinkState,
    now_us: u64,
    insts: &mut [InstanceState],
    phases: &[Phase],
    ctl: Option<&CellCtl>,
    drained: &[bool],
    max_batch: u32,
    knobs: &ServeKnobs,
    mut trace: Option<&mut TraceSink<'_>>,
    acc: &mut ShardTotals,
    mut on_deliver: impl FnMut(usize),
) {
    while let Some(job) = kv.peek_landed(now_us) {
        let serving = |i: usize| ctl.is_none_or(|c| c.modes[i] == SlotMode::Live);
        let target = insts
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                phases[*i] == Phase::Decode
                    && s.up
                    && serving(*i)
                    && !drained[*i]
                    && s.active() + job.count <= max_batch
            })
            .min_by_key(|(i, s)| (s.active(), *i))
            .map(|(i, _)| i);
        match target {
            Some(i) => {
                let job = kv.pop().expect("peeked");
                KvLinkState::record_delivery(
                    &job,
                    now_us,
                    &knobs.tenants[job.tenant as usize],
                    acc,
                );
                if let Some(ts) = trace.as_deref_mut() {
                    if ts.sampler.sampled(job.span) {
                        let tid = insts[i].global_index();
                        ts.buf.push(TraceEvent::async_end(
                            "req",
                            "kv_transfer",
                            now_us,
                            ts.cell,
                            tid,
                            job.span,
                            job.bytes,
                        ));
                        ts.buf.push(TraceEvent::async_begin(
                            "req",
                            "decode",
                            now_us,
                            ts.cell,
                            tid,
                            job.span,
                            job.count as u64,
                        ));
                    }
                }
                insts[i].admit_decode_cohort(&job);
                on_deliver(i);
            }
            None => break,
        }
    }
}

/// Re-routes a failed decode instance's requeued work to the prefill
/// pool (its KV caches died with it, so it must re-prefill — and decode
/// instances never prefill). Target: the least-queued prefill slot that
/// is up and actually serving, ties to the lowest index; parking the
/// work behind a down or parked "prefill" slot would strand it for the
/// whole repair. If the cell transiently has no serving prefill slot
/// (rebalance in flight, pool down), the runs stay parked on the source
/// instance and re-route on a later tick — admitted work is never
/// dropped. The runs were admitted once already, so the queue cap does
/// not re-apply and no routing counters move. Returns the slot the runs
/// landed on (`None` when there was nothing queued), so the event
/// engine can mark the target busy.
fn reroute_decode_retries(
    insts: &mut [InstanceState],
    phases: &[Phase],
    ctl: Option<&CellCtl>,
    from: usize,
) -> Option<usize> {
    let runs = insts[from].take_queued_runs();
    if runs.is_empty() {
        return None;
    }
    let serving = |i: usize| ctl.is_none_or(|c| c.modes[i] == SlotMode::Live);
    let target = insts
        .iter()
        .enumerate()
        .filter(|(i, s)| phases[*i] == Phase::Prefill && s.up && serving(*i))
        .min_by_key(|(i, s)| (s.queued(), *i))
        .map_or(from, |(i, _)| i);
    insts[target].accept_requeued_runs(runs);
    Some(target)
}

/// One worker thread's result accumulators: report totals, the
/// deterministic series/trace layers and the (wall-clock,
/// non-deterministic) profile, plus the series sampler's scratch. Every
/// cell a worker steps, whichever shard it belongs to, adds into its one
/// set, so a run holds `threads` of these, never `shards`.
struct WorkerAcc {
    acc: ShardTotals,
    series: Option<SeriesRecorder>,
    trace: Vec<TraceEvent>,
    prof: ProfTimer,
    tenant_scratch: Vec<u64>,
}

impl WorkerAcc {
    fn new(shared: &Shared<'_>) -> Self {
        let cfg = shared.cfg;
        let n_tenants = cfg.workload.tenants.len();
        let every = shared.series_every;
        Self {
            acc: ShardTotals::new(n_tenants, shared.lut.num_clocks()),
            series: (every > 0).then(|| {
                SeriesRecorder::new(
                    every as u64 * shared.knobs.tick_us,
                    (cfg.num_ticks() / every) as usize,
                )
            }),
            trace: Vec::new(),
            prof: ProfTimer::new(cfg.telemetry.profile),
            tenant_scratch: vec![0u64; n_tenants],
        }
    }

    /// Sorts the trace on the worker thread, so the merge sees one
    /// sorted run per worker.
    fn finish(mut self) -> Self {
        self.trace.sort_unstable();
        self
    }
}

/// Wall-clock phase timer; each `mark` attributes the time since the
/// previous mark (or `reset`) to a phase. A disabled timer never reads
/// the clock, so profiling-off runs pay nothing.
struct ProfTimer {
    p: Option<PhaseProfile>,
    last: Instant,
}

impl ProfTimer {
    fn new(enabled: bool) -> Self {
        Self {
            p: enabled.then(PhaseProfile::new),
            last: Instant::now(),
        }
    }

    /// Restarts the interval without attributing the elapsed time.
    fn reset(&mut self) {
        if self.p.is_some() {
            self.last = Instant::now();
        }
    }

    fn mark(&mut self, phase: usize) {
        if let Some(p) = self.p.as_mut() {
            let now = Instant::now();
            p.record(phase, now.duration_since(self.last).as_nanos() as u64);
            self.last = now;
        }
    }
}

/// Snapshot of the monotone [`ShardTotals`] counters the series layer
/// differences per window. Cell-major stepping makes per-cell deltas
/// exact: between two snapshots only the current cell touches `acc`.
#[derive(Default)]
struct CounterSnap {
    arrived: u64,
    completed: u64,
    rejected: u64,
    admission_shed: u64,
    routing_shed: u64,
    tokens: u64,
    energy_uj: u64,
    failures: u64,
    restores: u64,
    repairs: u64,
    kv_stalls: u64,
    ttft_count: u64,
    ttft_sum_us: u128,
    /// Per tenant: (arrived, completed, shed).
    per_tenant: Vec<(u64, u64, u64)>,
}

impl CounterSnap {
    fn take(acc: &ShardTotals) -> Self {
        Self {
            arrived: acc.arrived,
            completed: acc.completed,
            rejected: acc.rejected,
            admission_shed: acc.admission_shed,
            routing_shed: acc.routing_shed,
            tokens: acc.generated_tokens,
            energy_uj: acc.energy_uj,
            failures: acc.failures,
            restores: acc.restores,
            repairs: acc.repairs_dispatched,
            kv_stalls: acc.kv_backpressure_stalls,
            ttft_count: acc.ttft.total(),
            ttft_sum_us: acc.ttft.sum_us(),
            per_tenant: acc
                .per_tenant
                .iter()
                .map(|t| (t.arrived, t.completed, t.shed))
                .collect(),
        }
    }

    /// Shifts this snapshot forward by the counter movement between
    /// `pause` and `now` — the additions *other* cells of the worker made
    /// to the accumulator while this cell's stepping was paused between
    /// fleet windows — so the next window delta still counts only this
    /// cell's own additions. With cell-major stepping the movement is
    /// zero and this is a no-op.
    fn advance(&mut self, pause: &Self, now: &Self) {
        self.arrived += now.arrived - pause.arrived;
        self.completed += now.completed - pause.completed;
        self.rejected += now.rejected - pause.rejected;
        self.admission_shed += now.admission_shed - pause.admission_shed;
        self.routing_shed += now.routing_shed - pause.routing_shed;
        self.tokens += now.tokens - pause.tokens;
        self.energy_uj += now.energy_uj - pause.energy_uj;
        self.failures += now.failures - pause.failures;
        self.restores += now.restores - pause.restores;
        self.repairs += now.repairs - pause.repairs;
        self.kv_stalls += now.kv_stalls - pause.kv_stalls;
        self.ttft_count += now.ttft_count - pause.ttft_count;
        self.ttft_sum_us += now.ttft_sum_us - pause.ttft_sum_us;
        for (s, (n, p)) in self
            .per_tenant
            .iter_mut()
            .zip(now.per_tenant.iter().zip(&pause.per_tenant))
        {
            s.0 += n.0 - p.0;
            s.1 += n.1 - p.1;
            s.2 += n.2 - p.2;
        }
    }
}

/// Pre-resolved metric ids for one cell's sampling: every name is
/// formatted and resolved once per cell, so each sample instant is pure
/// array accumulation (no string formatting or map lookups in the tick
/// loop). Registration happens at cell setup, which also gives the
/// export a stable schema — e.g. every DVFS grid rung appears even in
/// windows (or runs) that never touch it.
struct SeriesIds {
    arrived: MetricId,
    completed: MetricId,
    rejected: MetricId,
    admission_shed: MetricId,
    routing_shed: MetricId,
    tokens: MetricId,
    energy_uj: MetricId,
    failures: MetricId,
    restores: MetricId,
    repairs: MetricId,
    kv_stalls: MetricId,
    ttft_count: MetricId,
    ttft_sum_us: MetricId,
    /// Per tenant: arrived, completed, shed (counters) and queued gauge.
    tenants: Vec<[MetricId; 4]>,
    queued: MetricId,
    active: MetricId,
    up: MetricId,
    draining: MetricId,
    repair_pending: MetricId,
    spares_free: MetricId,
    /// KV-link backlog µs and in-flight bytes (phase-split cells).
    kv: Option<(MetricId, MetricId)>,
    /// Prefill / decode pool sizes (phase-split cells).
    pools: Option<(MetricId, MetricId)>,
    ctl: Option<CtlSeriesIds>,
    /// Per-cell queued, up gauges and arrived, completed counters.
    per_cell: Option<[MetricId; 4]>,
}

/// Control-plane slot-mode gauges plus one gauge per DVFS grid rung.
struct CtlSeriesIds {
    live: MetricId,
    warm: MetricId,
    cold: MetricId,
    booting: MetricId,
    clock_live: Vec<MetricId>,
}

impl SeriesIds {
    fn new(
        s: &mut SeriesRecorder,
        n_tenants: usize,
        clocks: Option<usize>,
        has_split: bool,
        per_cell: Option<u32>,
    ) -> Self {
        use MetricKind::{Counter, Gauge};
        Self {
            arrived: s.id("arrived", Counter),
            completed: s.id("completed", Counter),
            rejected: s.id("rejected", Counter),
            admission_shed: s.id("admission_shed", Counter),
            routing_shed: s.id("routing_shed", Counter),
            tokens: s.id("tokens", Counter),
            energy_uj: s.id("energy_uj", Counter),
            failures: s.id("failures", Counter),
            restores: s.id("restores", Counter),
            repairs: s.id("repairs", Counter),
            kv_stalls: s.id("kv_stalls", Counter),
            ttft_count: s.id("ttft_count", Counter),
            ttft_sum_us: s.id("ttft_sum_us", Counter),
            tenants: (0..n_tenants)
                .map(|t| {
                    [
                        s.id(&format!("tenant{t}/arrived"), Counter),
                        s.id(&format!("tenant{t}/completed"), Counter),
                        s.id(&format!("tenant{t}/shed"), Counter),
                        s.id(&format!("tenant{t}/queued"), Gauge),
                    ]
                })
                .collect(),
            queued: s.id("queued", Gauge),
            active: s.id("active", Gauge),
            up: s.id("up", Gauge),
            draining: s.id("draining", Gauge),
            repair_pending: s.id("repair_pending", Gauge),
            spares_free: s.id("spares_free", Gauge),
            kv: has_split.then(|| {
                (
                    s.id("kv_backlog_us", Gauge),
                    s.id("kv_inflight_bytes", Gauge),
                )
            }),
            pools: has_split.then(|| (s.id("pool_prefill", Gauge), s.id("pool_decode", Gauge))),
            ctl: clocks.map(|n| CtlSeriesIds {
                live: s.id("live", Gauge),
                warm: s.id("warm", Gauge),
                cold: s.id("cold", Gauge),
                booting: s.id("booting", Gauge),
                clock_live: (0..n)
                    .map(|ci| s.id(&format!("clock{ci}/live"), Gauge))
                    .collect(),
            }),
            per_cell: per_cell.map(|c| {
                [
                    s.id(&format!("cell{c}/queued"), Gauge),
                    s.id(&format!("cell{c}/up"), Gauge),
                    s.id(&format!("cell{c}/arrived"), Counter),
                    s.id(&format!("cell{c}/completed"), Counter),
                ]
            }),
        }
    }
}

/// Samples one window of series metrics for one cell: counter deltas
/// since `snap` plus gauges of current state. Returns the fresh snapshot
/// the caller carries to the next window.
#[allow(clippy::too_many_arguments)]
fn sample_series(
    series: &mut SeriesRecorder,
    ids: &SeriesIds,
    w: usize,
    now_us: u64,
    snap: &CounterSnap,
    acc: &ShardTotals,
    insts: &[InstanceState],
    ctl: Option<&CellCtl>,
    phases: &[Phase],
    kv: Option<&KvLinkState>,
    cell: &CellState,
    drained: &[bool],
    tenant_scratch: &mut [u64],
) -> CounterSnap {
    let c = CounterSnap::take(acc);
    series.add_at(ids.arrived, w, c.arrived - snap.arrived);
    series.add_at(ids.completed, w, c.completed - snap.completed);
    series.add_at(ids.rejected, w, c.rejected - snap.rejected);
    series.add_at(
        ids.admission_shed,
        w,
        c.admission_shed - snap.admission_shed,
    );
    series.add_at(ids.routing_shed, w, c.routing_shed - snap.routing_shed);
    series.add_at(ids.tokens, w, c.tokens - snap.tokens);
    series.add_at(ids.energy_uj, w, c.energy_uj - snap.energy_uj);
    series.add_at(ids.failures, w, c.failures - snap.failures);
    series.add_at(ids.restores, w, c.restores - snap.restores);
    series.add_at(ids.repairs, w, c.repairs - snap.repairs);
    series.add_at(ids.kv_stalls, w, c.kv_stalls - snap.kv_stalls);
    series.add_at(ids.ttft_count, w, c.ttft_count - snap.ttft_count);
    series.add_at(
        ids.ttft_sum_us,
        w,
        (c.ttft_sum_us - snap.ttft_sum_us) as u64,
    );
    for (t, (&(a1, c1, s1), &(a0, c0, s0))) in c.per_tenant.iter().zip(&snap.per_tenant).enumerate()
    {
        let [ta, tc, tshed, _] = ids.tenants[t];
        series.add_at(ta, w, a1 - a0);
        series.add_at(tc, w, c1 - c0);
        series.add_at(tshed, w, s1 - s0);
    }
    // Gauges: this cell's state at the window's end instant (summing the
    // per-cell contributions gives the fleet-wide value).
    let mut queued = 0u64;
    let mut active = 0u64;
    let mut up = 0u64;
    tenant_scratch.fill(0);
    for inst in insts {
        queued += inst.queued();
        active += inst.active() as u64;
        up += u64::from(inst.up);
        inst.queued_by_tenant(tenant_scratch);
    }
    series.add_at(ids.queued, w, queued);
    series.add_at(ids.active, w, active);
    series.add_at(ids.up, w, up);
    for (t, &q) in tenant_scratch.iter().enumerate() {
        series.add_at(ids.tenants[t][3], w, q);
    }
    series.add_at(ids.draining, w, drained.iter().map(|&d| u64::from(d)).sum());
    series.add_at(ids.repair_pending, w, cell.pending_len());
    series.add_at(ids.spares_free, w, cell.spares_free as u64);
    if let (Some(link), Some((backlog, inflight))) = (kv, ids.kv) {
        series.add_at(backlog, w, link.backlog_us(now_us));
        series.add_at(inflight, w, link.inflight_bytes());
    }
    if let Some((pp, pd)) = ids.pools {
        let (mut prefill, mut decode) = (0u64, 0u64);
        for &p in phases {
            match p {
                Phase::Prefill => prefill += 1,
                Phase::Decode => decode += 1,
                Phase::Mixed => {}
            }
        }
        series.add_at(pp, w, prefill);
        series.add_at(pd, w, decode);
    }
    if let (Some(c), Some(ci_ids)) = (ctl, &ids.ctl) {
        let (mut live, mut warm, mut cold, mut booting) = (0u64, 0u64, 0u64, 0u64);
        for m in &c.modes {
            match m {
                SlotMode::Live => live += 1,
                SlotMode::Warm => warm += 1,
                SlotMode::Cold => cold += 1,
                SlotMode::Booting { .. } => booting += 1,
            }
        }
        series.add_at(ci_ids.live, w, live);
        series.add_at(ci_ids.warm, w, warm);
        series.add_at(ci_ids.cold, w, cold);
        series.add_at(ci_ids.booting, w, booting);
        // DVFS operating-point distribution over live, up slots.
        for (i, &ci) in c.clocks.iter().enumerate() {
            if c.modes[i] == SlotMode::Live && insts[i].up {
                series.add_at(ci_ids.clock_live[ci as usize], w, 1);
            }
        }
    }
    if let Some([cq, cu, ca, cc]) = ids.per_cell {
        series.add_at(cq, w, queued);
        series.add_at(cu, w, up);
        series.add_at(ca, w, c.arrived - snap.arrived);
        series.add_at(cc, w, c.completed - snap.completed);
    }
    c
}

/// Lazily bills instance `i`'s idle ticks `[accrued[i], to)` at its
/// current administrative mode — the event engine's replacement for the
/// tick loop's per-tick energy walk over every instance.
///
/// Exactness rests on two facts. First, an idle instance's serve was a
/// pure no-op (`spent == 0`, no RNG draw, `carry_us` already zero), so
/// a Live idle tick billed exactly the static floor plus one
/// live/clock/phase tick and a Warm or Booting tick exactly the floor.
/// Second, every input of that per-tick amount (`up`, mode, clock,
/// clamp, phase) is constant across the span, because each mutation
/// site runs behind an accrual barrier: the failure lifecycle and
/// chaos outages accrue the instance first, control ticks, boot
/// promotions and thermal-clamp changes accrue the whole cell first,
/// and the serve path closes its own span every busy tick.
#[allow(clippy::too_many_arguments)]
fn accrue_idle_span(
    acc: &mut ShardTotals,
    power: &InstancePower,
    tick_us: u64,
    nominal_ci: u8,
    insts: &[InstanceState],
    ctl: Option<&CellCtl>,
    clamp: &[u8],
    phases: &[Phase],
    accrued: &mut [u32],
    i: usize,
    to: u32,
) {
    let from = accrued[i];
    if to <= from {
        return;
    }
    accrued[i] = to;
    let inst = &insts[i];
    if !inst.up {
        return;
    }
    let k = (to - from) as u64;
    let e = power.idle_mw * tick_us / 1000;
    match ctl.map_or(SlotMode::Live, |c| c.modes[i]) {
        SlotMode::Live => {
            acc.energy_uj += e * k;
            acc.idle_energy_uj += e * k;
            acc.live_ticks += k;
            let ci = ctl.map_or(nominal_ci, |c| c.clocks[i]).min(clamp[i]) as usize;
            acc.clock_ticks[ci] += k;
            match phases[i] {
                Phase::Prefill => acc.prefill_live_ticks += k,
                Phase::Decode => acc.decode_live_ticks += k,
                Phase::Mixed => {}
            }
        }
        SlotMode::Warm | SlotMode::Booting { .. } => {
            acc.energy_uj += e * k;
            acc.idle_energy_uj += e * k;
        }
        SlotMode::Cold => {}
    }
}

/// Inserts `i` into the busy set (idempotent). The list stays sorted:
/// busy instances must serve in index order, because concurrent prefill
/// completions share one FIFO KV link per cell and the enqueue order is
/// part of the deterministic byte contract.
fn busy_add(busy: &mut [bool], list: &mut Vec<u32>, i: usize) {
    if !busy[i] {
        busy[i] = true;
        let p = list.partition_point(|&x| (x as usize) < i);
        list.insert(p, i as u32);
    }
}

/// Drops `i` from the busy set if present.
fn busy_remove(busy: &mut [bool], list: &mut Vec<u32>, i: usize) {
    if busy[i] {
        busy[i] = false;
        if let Ok(p) = list.binary_search(&(i as u32)) {
            list.remove(p);
        }
    }
}

/// The earliest tick at which a booting slot finishes (`u32::MAX` when
/// nothing completes inside the horizon): the boot-promotion wakeup
/// channel, rescanned after every control tick and promotion.
fn next_boot_tick(modes: &[SlotMode], tick_us: u64, ticks: u32) -> u32 {
    modes
        .iter()
        .filter_map(|m| match m {
            SlotMode::Booting { until_us } => Some(until_us.div_ceil(tick_us)),
            _ => None,
        })
        .min()
        .map_or(
            u32::MAX,
            |t| {
                if t < ticks as u64 {
                    t as u32
                } else {
                    u32::MAX
                }
            },
        )
}

/// One cell's read-only state published at a fleet-tick boundary: the
/// fleet-scope observation row plus the cell's own upcoming-window
/// arrival batches `(tick, tenant, count)` that the planner may spill.
struct CellSnapshot {
    obs: FleetCellObs,
    window: Vec<(u32, u16, u64)>,
}

/// The per-cell outcome of one fleet plan, applied between windows.
/// Everything in here was computed by the pure planner from published
/// snapshots only, so applying it is deterministic for any thread count.
#[derive(Default)]
struct CellPlan {
    /// Admission budget for the coming window (`None` = unlimited).
    quota: Option<u64>,
    /// Arrival batches to shrink at the source: `(index relative to the
    /// cell's arrival cursor, requests to remove)`.
    deduct: Vec<(usize, u64)>,
    /// Per-destination spill totals booked at the source: `(dst, requests)`.
    outflow: Vec<(u32, u64)>,
    /// Redirected cohorts arriving here: `(tick, tenant, count)`, sorted
    /// by `(tick, admission order, source cell)`.
    inflow: Vec<(u32, u16, u64)>,
}

/// One cell's complete simulation state, stepped through the horizon in
/// resumable segments.
///
/// The cell-major engine ([`simulate_cells`]) runs a single segment
/// covering the whole horizon — that path is byte-identical to the
/// pre-extraction loop. The fleet-balancer engine ([`run_balanced`])
/// runs one segment per fleet window, with [`CellSim::publish`] /
/// [`CellSim::apply_plan`] at each boundary. Pausing is exact: every
/// piece of loop state (wakeup heap, accrual clocks, arrival cursor,
/// periodic channels, the current tick) lives here, and the only
/// cross-window correction needed is the series snapshot drift — other
/// cells of the same worker advance the worker's accumulator while this
/// cell is paused, so the sampling snapshot is advanced by the same
/// amount on re-entry ([`CounterSnap::advance`]).
struct CellSim<'a> {
    cell_idx: u32,
    cell: CellState,
    insts: Vec<InstanceState>,
    phases: Vec<Phase>,
    kv: Option<KvLinkState>,
    traffic: CellTraffic,
    ctl: Option<CellCtl>,
    chaos: Option<&'a CellChaos>,
    outage_fired: Vec<bool>,
    partition_fired: Vec<bool>,
    thermal_fired: Vec<bool>,
    drain_fired: Vec<bool>,
    drain_restored: Vec<bool>,
    drained: Vec<bool>,
    clamp: Vec<u8>,
    chaos_outed: Vec<bool>,
    /// Request-span sampler carried between segments; the borrowing
    /// [`TraceSink`] is reassembled inside each `run_until` call.
    sampler: Option<SpanSampler>,
    series_ids: Option<SeriesIds>,
    snap: CounterSnap,
    /// Worker-accumulator snapshot at the last segment exit, for the
    /// re-entry drift compensation (kept only when sampling series).
    pause: Option<CounterSnap>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    accrued: Vec<u32>,
    busy: Vec<bool>,
    busy_list: Vec<u32>,
    lifecycle_now: Vec<u32>,
    clamp_scratch: Vec<u8>,
    arrivals: Vec<(u32, u16, u64)>,
    arr_ptr: usize,
    /// Spilled-in cohorts from other cells, sorted by tick (appended in
    /// window order, and each window's plan is tick-sorted); consumed
    /// through a cursor like `arrivals`.
    inflow: Vec<(u32, u16, u64)>,
    inflow_ptr: usize,
    flow: FlowCtl,
    next_ctrl: u32,
    next_boot: u32,
    next_sample: u32,
    kv_next: u32,
    kv_blocked: bool,
    decode_retry: bool,
    tick: u32,
}

impl<'a> CellSim<'a> {
    fn new(shared: &'a Shared<'_>, seed: u64, cell_idx: u32, w: &mut WorkerAcc) -> Self {
        let WorkerAcc {
            acc, series, prof, ..
        } = w;
        let series_every = shared.series_every;
        let cfg = shared.cfg;
        let rates = &shared.rates;
        let n_tenants = cfg.workload.tenants.len();
        let ticks = cfg.num_ticks();
        let tick_us = shared.knobs.tick_us;
        let tel = &cfg.telemetry;
        let first = cell_idx * cfg.cell_size;
        let last = (first + cfg.cell_size).min(cfg.instances);
        let cell = CellState::new(cfg.spares_per_cell, cfg.repair_crews_per_cell);
        let insts: Vec<InstanceState> = (first..last)
            .map(|g| InstanceState::new(seed, g as u64, rates, n_tenants))
            .collect();
        // Phase roles: monolithic cells are all-Mixed; split cells start
        // at the configured fraction (prefill pool on the low-indexed
        // stable primaries) and the phase-aware autoscaler rebalances.
        let phases: Vec<Phase> = match &shared.split {
            None => vec![Phase::Mixed; insts.len()],
            Some(s) => {
                let np = s.prefill_slots(insts.len());
                (0..insts.len())
                    .map(|i| {
                        if i < np {
                            Phase::Prefill
                        } else {
                            Phase::Decode
                        }
                    })
                    .collect()
            }
        };
        let kv: Option<KvLinkState> = shared
            .split
            .as_ref()
            .map(|s| KvLinkState::new(s.kv_bytes_per_s, s.kv_max_backlog_us));
        let mut traffic = CellTraffic::new(seed, cell_idx, n_tenants, insts.len());
        let ctl = cfg.ctrl.as_ref().map(|c| {
            CellCtl::new(
                c,
                seed,
                cell_idx,
                insts.len(),
                cfg.tick_s,
                shared.nominal_ci,
            )
        });
        let chaos = shared
            .chaos
            .get(cell_idx as usize)
            .filter(|c| !c.is_empty());
        // Resolve this cell's metric ids once: re-resolution across
        // cells is idempotent, and the tick loop then samples by index.
        let series_ids = series.as_mut().map(|s| {
            SeriesIds::new(
                s,
                n_tenants,
                ctl.is_some().then(|| shared.lut.num_clocks()),
                shared.split.is_some(),
                tel.per_cell_series.then_some(cell_idx),
            )
        });
        let n = insts.len();
        // The wakeup heap over `(tick, local idx)`: `idx == u32::MAX`
        // is a generic "process this tick" entry (chaos window edges,
        // repair-dispatch readiness); `idx < n` requests that
        // instance's failure lifecycle at that tick.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (i, inst) in insts.iter().enumerate() {
            let nf = inst.next_failure_at_us();
            if nf != u64::MAX && nf / tick_us < ticks as u64 {
                heap.push(Reverse(((nf / tick_us) as u32, i as u32)));
            }
        }
        if let Some(ch) = chaos {
            // Chaos window edges are static: schedule every boundary
            // that must be observed at its exact tick. Outages fire at
            // the tick containing their start (the `start < t_end`
            // test); the other windows matter from the first tick at or
            // after each boundary (the `start <= t_start < end` test).
            let mut wake = |t: u64| {
                if t < ticks as u64 {
                    heap.push(Reverse((t as u32, u32::MAX)));
                }
            };
            for (_, start, _, _) in &ch.outages {
                wake(start / tick_us);
            }
            for &(start, _) in &ch.partitions {
                wake(start.div_ceil(tick_us));
            }
            for (start, end, _) in &ch.drains {
                wake(start.div_ceil(tick_us));
                wake(end.div_ceil(tick_us));
            }
            for (start, end, _, _) in &ch.thermals {
                wake(start.div_ceil(tick_us));
                wake(end.div_ceil(tick_us));
            }
        }
        // The whole horizon of arrivals, drawn up front (stream-exact —
        // see `precompute_arrivals`), consumed through a cursor.
        prof.reset();
        let rate_scale = cfg
            .cell_rate_multipliers
            .get(cell_idx as usize)
            .copied()
            .unwrap_or(1.0);
        let arrivals = traffic.precompute_arrivals(shared, n, ticks, rate_scale);
        prof.mark(PHASE_ROUTE);
        // Periodic wakeup channels.
        let next_ctrl = ctl.as_ref().map_or(u32::MAX, |c| c.interval_ticks);
        Self {
            cell_idx,
            cell,
            insts,
            phases,
            kv,
            traffic,
            ctl,
            chaos,
            outage_fired: vec![false; chaos.map_or(0, |c| c.outages.len())],
            partition_fired: vec![false; chaos.map_or(0, |c| c.partitions.len())],
            thermal_fired: vec![false; chaos.map_or(0, |c| c.thermals.len())],
            drain_fired: vec![false; chaos.map_or(0, |c| c.drains.len())],
            drain_restored: vec![false; chaos.map_or(0, |c| c.drains.len())],
            drained: vec![false; n],
            clamp: vec![u8::MAX; n],
            chaos_outed: vec![false; n],
            sampler: (tel.trace_every > 0).then(|| SpanSampler::new(tel.trace_every)),
            snap: CounterSnap::take(acc),
            pause: series_ids.is_some().then(|| CounterSnap::take(acc)),
            series_ids,
            heap,
            accrued: vec![0u32; n],
            busy: vec![false; n],
            busy_list: Vec::new(),
            lifecycle_now: Vec::new(),
            clamp_scratch: vec![u8::MAX; n],
            arrivals,
            arr_ptr: 0,
            inflow: Vec::new(),
            inflow_ptr: 0,
            flow: FlowCtl::default(),
            next_ctrl,
            next_boot: u32::MAX,
            next_sample: if series_every > 0 {
                series_every - 1
            } else {
                u32::MAX
            },
            kv_next: u32::MAX,
            kv_blocked: false,
            decode_retry: false,
            tick: 0,
        }
    }

    /// Steps this cell until its clock reaches `until` (the cell may
    /// pause *past* `until` after an idle jump — that is fine, the next
    /// segment resumes from there). Every phase of the loop body is
    /// identical to the pre-extraction cell-major loop; only the loop
    /// bound changed from the horizon to `until`.
    fn run_until(&mut self, shared: &Shared<'_>, until: u32, w: &mut WorkerAcc) {
        let WorkerAcc {
            acc,
            series,
            trace: trace_buf,
            prof,
            tenant_scratch,
        } = w;
        // Re-entry drift compensation: while this cell was paused, the
        // worker's other cells advanced `acc`; shift the sampling
        // snapshot by the same amount so the next window delta counts
        // only this cell's own additions.
        if let Some(pause) = self.pause.take() {
            if self.series_ids.is_some() {
                self.snap.advance(&pause, &CounterSnap::take(acc));
            }
        }
        let cell_idx = self.cell_idx;
        let knobs = &shared.knobs;
        let rates = &shared.rates;
        let power = &shared.power;
        let ticks = shared.cfg.num_ticks();
        let tick_us = knobs.tick_us;
        let CellSim {
            cell,
            insts,
            phases,
            kv,
            traffic,
            ctl,
            chaos,
            outage_fired,
            partition_fired,
            thermal_fired,
            drain_fired,
            drain_restored,
            drained,
            clamp,
            chaos_outed,
            sampler,
            series_ids,
            snap: snap_ref,
            pause: pause_ref,
            heap,
            accrued,
            busy,
            busy_list,
            lifecycle_now,
            clamp_scratch,
            arrivals,
            arr_ptr: arr_ptr_ref,
            inflow,
            inflow_ptr: inflow_ptr_ref,
            flow,
            next_ctrl: next_ctrl_ref,
            next_boot: next_boot_ref,
            next_sample: next_sample_ref,
            kv_next: kv_next_ref,
            kv_blocked: kv_blocked_ref,
            decode_retry: decode_retry_ref,
            tick: tick_ref,
            ..
        } = self;
        let series_every = shared.series_every;
        let mut snap = core::mem::take(snap_ref);
        let mut sink = sampler.take().map(|sampler| TraceSink {
            buf: trace_buf,
            sampler,
            cell: cell_idx,
        });
        let n = insts.len();
        let mut arr_ptr = *arr_ptr_ref;
        let mut inflow_ptr = *inflow_ptr_ref;
        let mut next_ctrl = *next_ctrl_ref;
        let mut next_boot = *next_boot_ref;
        let mut next_sample = *next_sample_ref;
        let mut kv_next = *kv_next_ref;
        let mut kv_blocked = *kv_blocked_ref;
        let mut decode_retry = *decode_retry_ref;
        let mut tick = *tick_ref;
        macro_rules! accrue {
            ($i:expr, $to:expr) => {
                accrue_idle_span(
                    acc,
                    power,
                    tick_us,
                    shared.nominal_ci,
                    &insts,
                    ctl.as_ref(),
                    &clamp,
                    &phases,
                    accrued,
                    $i,
                    $to,
                )
            };
        }
        macro_rules! accrue_all {
            ($to:expr) => {
                for i in 0..n {
                    accrue!(i, $to);
                }
            };
        }
        while tick < until {
            let t_start = tick as u64 * tick_us;
            let t_end = t_start + tick_us;
            prof.reset();
            cell.reclaim_repaired(t_start);
            for job in cell.dispatch_repairs(t_start, rates.repair_us) {
                acc.repairs_dispatched += 1;
                acc.repair_wait_us += job.wait_us;
                if !job.replenish {
                    insts[job.local_idx as usize].schedule_recovery(job.done_us);
                    // The recovery can already be due this tick (a
                    // zero-length repair); the heap drains after
                    // dispatch, so a same-tick wakeup still runs.
                    let rt = job.done_us.div_ceil(tick_us).max(tick as u64);
                    if rt < ticks as u64 {
                        heap.push(Reverse((rt as u32, job.local_idx)));
                    }
                }
                if let Some(ts) = sink.as_mut() {
                    ts.buf.push(TraceEvent::complete(
                        "chaos",
                        "repair",
                        t_start,
                        job.done_us.saturating_sub(t_start),
                        cell_idx,
                        job.local_idx,
                        job.wait_us,
                    ));
                }
            }
            lifecycle_now.clear();
            while let Some(&Reverse((t, i))) = heap.peek() {
                if t > tick {
                    break;
                }
                heap.pop();
                // Dedup duplicate instance wakeups: equal entries pop
                // adjacently, and a doubled lifecycle call could
                // recover-and-refail within one tick where the tick
                // loop called it exactly once.
                if i != u32::MAX && lifecycle_now.last() != Some(&i) {
                    lifecycle_now.push(i);
                }
            }
            let mut partitioned = false;
            let mut forced_down = false;
            if let Some(ch) = chaos {
                // Correlated outages fire once, at the tick containing
                // their window start: every affected up instance goes down
                // for the window. Spares apply, but the swap can only run
                // once the domain is back, so spare recovery lands at
                // window end + swap; either way the repair crew is
                // requested for window end.
                for (e, (kind, start, end, locals)) in ch.outages.iter().enumerate() {
                    if outage_fired[e] || *start >= t_end {
                        continue;
                    }
                    outage_fired[e] = true;
                    let at = (*start).max(t_start);
                    if let Some(ts) = sink.as_mut() {
                        ts.buf.push(TraceEvent::complete(
                            "chaos",
                            if *kind == 2 {
                                "power_outage"
                            } else {
                                "rack_outage"
                            },
                            *start,
                            end - start,
                            cell_idx,
                            locals.first().copied().unwrap_or(0),
                            locals.len() as u64,
                        ));
                    }
                    for &li in locals {
                        let iu = li as usize;
                        if !insts[iu].up {
                            continue;
                        }
                        accrue!(iu, tick);
                        acc.failures += 1;
                        acc.by_kind[*kind] += 1;
                        if cell.try_take_spare() {
                            acc.spare_hits += 1;
                            insts[iu].force_down(at, end.saturating_add(rates.swap_us.max(1)), acc);
                            cell.enqueue_repair(*end, li, true);
                        } else {
                            acc.spare_misses += 1;
                            insts[iu].force_down(at, u64::MAX, acc);
                            cell.enqueue_repair(*end, li, false);
                        }
                        let du = insts[iu].down_until_at_us();
                        if du != u64::MAX {
                            let rt = du.div_ceil(tick_us);
                            if rt < ticks as u64 {
                                heap.push(Reverse((rt as u32, li)));
                            }
                        }
                        // The repair job becomes dispatchable at the
                        // first tick whose start reaches the window end.
                        let dt = end.div_ceil(tick_us).max(tick as u64 + 1);
                        if dt < ticks as u64 {
                            heap.push(Reverse((dt as u32, u32::MAX)));
                        }
                        forced_down = true;
                        busy_remove(busy, busy_list, iu);
                    }
                }
                let active = |s: u64, e: u64| s <= t_start && t_start < e;
                for (e, &(start, end)) in ch.partitions.iter().enumerate() {
                    if active(start, end) {
                        partitioned = true;
                        if !partition_fired[e] {
                            partition_fired[e] = true;
                            acc.by_kind[3] += 1; // DomainKind::Partition.
                            if let Some(ts) = sink.as_mut() {
                                ts.buf.push(TraceEvent::complete(
                                    "chaos",
                                    "partition",
                                    start,
                                    end - start,
                                    cell_idx,
                                    0,
                                    insts.len() as u64,
                                ));
                            }
                        }
                    }
                }
                drained.fill(false);
                for (e, (start, end, locals)) in ch.drains.iter().enumerate() {
                    if active(*start, *end) {
                        if !drain_fired[e] {
                            drain_fired[e] = true;
                            acc.drains += locals.len() as u64;
                            if let Some(ts) = sink.as_mut() {
                                ts.buf.push(TraceEvent::complete(
                                    "chaos",
                                    "drain",
                                    *start,
                                    end - start,
                                    cell_idx,
                                    locals.first().copied().unwrap_or(0),
                                    locals.len() as u64,
                                ));
                            }
                        }
                        for &li in locals {
                            drained[li as usize] = true;
                        }
                    } else if drain_fired[e] && !drain_restored[e] && t_start >= *end {
                        drain_restored[e] = true;
                        acc.drain_restores += locals.len() as u64;
                        if let Some(ts) = sink.as_mut() {
                            ts.buf.push(TraceEvent::instant(
                                "chaos",
                                "drain_restore",
                                *end,
                                cell_idx,
                                locals.first().copied().unwrap_or(0),
                                locals.len() as u64,
                            ));
                        }
                    }
                }
                clamp_scratch.fill(u8::MAX);
                for (e, (start, end, cci, locals)) in ch.thermals.iter().enumerate() {
                    if active(*start, *end) {
                        if !thermal_fired[e] {
                            thermal_fired[e] = true;
                            acc.by_kind[4] += 1; // DomainKind::Thermal.
                            if let Some(ts) = sink.as_mut() {
                                ts.buf.push(TraceEvent::complete(
                                    "chaos",
                                    "thermal",
                                    *start,
                                    end - start,
                                    cell_idx,
                                    locals.first().copied().unwrap_or(0),
                                    locals.len() as u64,
                                ));
                            }
                        }
                        for &li in locals {
                            clamp_scratch[li as usize] = clamp_scratch[li as usize].min(*cci);
                        }
                    }
                }
                if clamp_scratch != clamp {
                    // A clamp change re-prices Live idle ticks (the
                    // clock-tick attribution): close every open accrual
                    // span at the old operating points before
                    // committing the new clamps.
                    accrue_all!(tick);
                    clamp.copy_from_slice(clamp_scratch);
                }
                chaos_outed.fill(false);
                for (_, start, end, locals) in &ch.outages {
                    if active(*start, *end) {
                        for &li in locals {
                            chaos_outed[li as usize] = true;
                        }
                    }
                }
            }
            prof.mark(PHASE_CHAOS);
            for &i in lifecycle_now.iter() {
                let iu = i as usize;
                let was_up = insts[iu].up;
                accrue!(iu, tick);
                insts[iu].lifecycle(i, t_start, tick_us, rates, cell, acc);
                let inst = &insts[iu];
                if was_up && !inst.up {
                    forced_down = true;
                    let du = inst.down_until_at_us();
                    if du != u64::MAX {
                        let rt = du.div_ceil(tick_us);
                        if rt < ticks as u64 {
                            heap.push(Reverse((rt as u32, i)));
                        }
                    }
                    // The failure enqueued a repair job, dispatchable at
                    // the next tick at the earliest (this tick's
                    // dispatch phase already ran).
                    if tick + 1 < ticks {
                        heap.push(Reverse((tick + 1, u32::MAX)));
                    }
                    busy_remove(busy, busy_list, iu);
                } else if !was_up && inst.up {
                    // Recovered. The lifecycle returns after a recovery,
                    // so a next-failure time already in the past still
                    // fails no earlier than the next tick.
                    let nf = inst.next_failure_at_us();
                    if nf != u64::MAX {
                        let ft = (nf / tick_us).max(tick as u64 + 1);
                        if ft < ticks as u64 {
                            heap.push(Reverse((ft as u32, i)));
                        }
                    }
                    if !inst.is_idle() {
                        busy_add(busy, busy_list, iu);
                    }
                }
            }
            // A failed decode instance's requeued work (KV lost) must go
            // back through the prefill pool — decode slots never prefill,
            // so anything the lifecycle parked on their queue re-routes.
            // Decode-side queues only ever appear through a force-down
            // flush, so the sweep is due exactly on force-down ticks and
            // while a previous sweep left work unplaced (`decode_retry`
            // then forces every tick until the pool can take it).
            if shared.split.is_some() && (forced_down || decode_retry) {
                decode_retry = false;
                for i in 0..n {
                    if phases[i] == Phase::Decode && insts[i].queued() > 0 {
                        if let Some(tgt) = reroute_decode_retries(insts, phases, ctl.as_ref(), i) {
                            if tgt != i {
                                busy_add(busy, busy_list, tgt);
                            }
                        }
                        if insts[i].queued() > 0 {
                            decode_retry = true;
                        }
                    }
                }
            }
            prof.mark(PHASE_LIFECYCLE);
            // `next_boot`/`next_ctrl` stay at `u32::MAX` without a
            // control plane, so these fire only when `ctl` is present.
            if tick >= next_boot {
                // Booting → Live changes the billing mode: close every
                // open span first.
                accrue_all!(tick);
                if let Some(c) = ctl.as_mut() {
                    c.finish_boots(t_start);
                    next_boot = next_boot_tick(&c.modes, tick_us, ticks);
                }
            }
            if tick == next_ctrl {
                // The control plane observes announced chaos state
                // (active outage windows + drains) so the autoscaler
                // can hold replacement capacity live instead of
                // parking it into the blast radius.
                let chaos_down = drained
                    .iter()
                    .zip(chaos_outed.iter())
                    .filter(|(&d, &o)| d || o)
                    .count() as u32;
                // Control may change modes, clocks and phases — all
                // accrual inputs.
                accrue_all!(tick);
                if let Some(c) = ctl.as_mut() {
                    c.control(
                        tick,
                        t_start,
                        insts,
                        phases,
                        kv.as_ref(),
                        shared,
                        chaos_down,
                        sink.as_mut(),
                        acc,
                    );
                    next_ctrl = next_ctrl.saturating_add(c.interval_ticks);
                    next_boot = next_boot_tick(&c.modes, tick_us, ticks);
                }
            }
            prof.mark(PHASE_CONTROL);
            // `kv_next` stays at `u32::MAX` (and `kv_blocked` false)
            // without a KV link, so this fires only when one exists.
            if let Some(link) = kv.as_mut().filter(|_| kv_blocked || tick >= kv_next) {
                deliver_transfers(
                    link,
                    t_start,
                    insts,
                    phases,
                    ctl.as_ref(),
                    drained,
                    shared.lut.max_batch,
                    knobs,
                    sink.as_mut(),
                    acc,
                    |i| busy_add(busy, busy_list, i),
                );
                // A landed head with no decode room blocks FIFO: the
                // next tick must process another delivery attempt.
                kv_blocked = link.peek_landed(t_start).is_some();
            }
            prof.mark(PHASE_KV);
            if arrivals.get(arr_ptr).is_some_and(|&(t, _, _)| t == tick) {
                let lo = arr_ptr;
                while arrivals.get(arr_ptr).is_some_and(|&(t, _, _)| t == tick) {
                    arr_ptr += 1;
                }
                traffic.route_event(
                    tick,
                    shared,
                    ctl.as_mut(),
                    phases,
                    insts,
                    partitioned,
                    drained,
                    acc,
                    flow,
                    &arrivals[lo..arr_ptr],
                    |i| busy_add(busy, busy_list, i),
                );
            }
            // Cross-cell spill-over: cohorts other cells redirected here
            // land after the cell's own same-tick arrivals (a fixed,
            // deterministic admission order) and go through the exact
            // same routing/admission path.
            if inflow.get(inflow_ptr).is_some_and(|&(t, _, _)| t == tick) {
                let lo = inflow_ptr;
                while inflow.get(inflow_ptr).is_some_and(|&(t, _, _)| t == tick) {
                    inflow_ptr += 1;
                }
                traffic.route_event(
                    tick,
                    shared,
                    ctl.as_mut(),
                    phases,
                    insts,
                    partitioned,
                    drained,
                    acc,
                    flow,
                    &inflow[lo..inflow_ptr],
                    |i| busy_add(busy, busy_list, i),
                );
            }
            prof.mark(PHASE_ROUTE);
            let mut keep = 0usize;
            for r in 0..busy_list.len() {
                let iu = busy_list[r] as usize;
                accrue!(iu, tick);
                let mode = ctl.as_ref().map_or(SlotMode::Live, |c| c.modes[iu]);
                // A thermal excursion caps the slot's operating point
                // below whatever DVFS (or nominal) asked for; the grid is
                // priced whenever any thermal event exists.
                let ci = ctl
                    .as_ref()
                    .map_or(shared.nominal_ci, |c| c.clocks[iu])
                    .min(clamp[iu]) as usize;
                let inst = &mut insts[iu];
                let (spent, nominal_spent) = if mode == SlotMode::Live {
                    inst.serve(
                        tick,
                        shared.lut,
                        knobs,
                        phases[iu],
                        ci as u8,
                        kv.as_mut(),
                        sink.as_mut(),
                        acc,
                    )
                } else {
                    (0, 0)
                };
                // Energy: powered states only. A down instance draws
                // nothing (its unit is out for swap/repair); a gated
                // (cold) instance draws nothing — that is the §3 win.
                // Dynamic power bills at the slot's operating point; the
                // nominal-clock counterfactual of the same served work
                // accumulates beside it, so the report can state exactly
                // what serving-time DVFS saved.
                if inst.up {
                    match mode {
                        SlotMode::Live => {
                            let dyn_uj = power.dyn_mw[ci] * spent / 1000;
                            acc.energy_uj += (power.idle_mw * tick_us) / 1000 + dyn_uj;
                            acc.idle_energy_uj +=
                                power.idle_mw * (tick_us - spent.min(tick_us)) / 1000;
                            acc.live_ticks += 1;
                            acc.clock_ticks[ci] += 1;
                            acc.dvfs_dyn_uj += dyn_uj;
                            acc.dvfs_nominal_dyn_uj +=
                                power.dyn_mw[shared.nominal_ci as usize] * nominal_spent / 1000;
                            match phases[iu] {
                                Phase::Prefill => acc.prefill_live_ticks += 1,
                                Phase::Decode => acc.decode_live_ticks += 1,
                                Phase::Mixed => {}
                            }
                        }
                        SlotMode::Warm | SlotMode::Booting { .. } => {
                            let e = power.idle_mw * tick_us / 1000;
                            acc.energy_uj += e;
                            acc.idle_energy_uj += e;
                        }
                        SlotMode::Cold => {}
                    }
                }
                accrued[iu] = tick + 1;
                if insts[iu].up && !insts[iu].is_idle() {
                    busy_list[keep] = iu as u32;
                    keep += 1;
                } else {
                    busy[iu] = false;
                }
            }
            busy_list.truncate(keep);
            prof.mark(PHASE_SERVE);
            if let Some(link) = kv.as_ref() {
                kv_next = match link.head_complete_us() {
                    Some(c) => {
                        let t = c.div_ceil(tick_us);
                        if t < ticks as u64 {
                            t as u32
                        } else {
                            u32::MAX
                        }
                    }
                    None => u32::MAX,
                };
            }
            if tick == next_sample {
                // Sampling reads the energy counter: bill this tick's
                // idle instances into the closing window first.
                accrue_all!(tick + 1);
                if let Some(s) = series.as_mut() {
                    let w = ((tick + 1) / series_every - 1) as usize;
                    let t_end = (tick as u64 + 1) * tick_us;
                    snap = sample_series(
                        s,
                        series_ids.as_ref().expect("ids resolved with the recorder"),
                        w,
                        t_end,
                        &snap,
                        acc,
                        insts,
                        ctl.as_ref(),
                        phases,
                        kv.as_ref(),
                        cell,
                        drained,
                        tenant_scratch,
                    );
                }
                next_sample = next_sample.saturating_add(series_every);
            }
            prof.mark(PHASE_SAMPLE);
            if !busy_list.is_empty() || kv_blocked || decode_retry {
                // Work (or a blocked KV head, or unplaced decode
                // retries) forces the very next tick.
                tick += 1;
            } else {
                // Idle: jump to the earliest due channel. `max(tick+1)`
                // guards against stale already-passed channel values.
                let mut nxt = ticks;
                if let Some(&Reverse((t, _))) = heap.peek() {
                    nxt = nxt.min(t);
                }
                if let Some(&(t, _, _)) = arrivals.get(arr_ptr) {
                    nxt = nxt.min(t);
                }
                if let Some(&(t, _, _)) = inflow.get(inflow_ptr) {
                    nxt = nxt.min(t);
                }
                nxt = nxt
                    .min(next_ctrl)
                    .min(next_boot)
                    .min(next_sample)
                    .min(kv_next);
                tick = nxt.max(tick + 1);
            }
        }
        // Write the segment's loop state back for the next segment (or
        // `finalize`).
        *arr_ptr_ref = arr_ptr;
        *inflow_ptr_ref = inflow_ptr;
        *next_ctrl_ref = next_ctrl;
        *next_boot_ref = next_boot;
        *next_sample_ref = next_sample;
        *kv_next_ref = kv_next;
        *kv_blocked_ref = kv_blocked;
        *decode_retry_ref = decode_retry;
        *tick_ref = tick;
        *snap_ref = snap;
        *sampler = sink.map(|ts| ts.sampler);
        *pause_ref = series_ids.is_some().then(|| CounterSnap::take(acc));
    }

    /// Publishes this cell's fleet-scope observation at a window
    /// boundary at `now_us`, together with the upcoming window's
    /// arrival batches (`tick < b_next`) the planner may spill.
    fn publish(&mut self, now_us: u64, b_next: u32) -> CellSnapshot {
        let mut obs = FleetCellObs::new();
        for inst in &self.insts {
            obs.queued += inst.queued();
            obs.active += inst.active() as u64;
            obs.up += u32::from(inst.up);
        }
        obs.live = match self.ctl.as_ref() {
            Some(c) => c
                .modes
                .iter()
                .zip(&self.insts)
                .filter(|(m, inst)| **m == SlotMode::Live && inst.up)
                .count() as u32,
            None => obs.up,
        };
        obs.arrived_window = core::mem::take(&mut self.flow.window_arrived);
        obs.kv_backlog_us = self.kv.as_ref().map_or(0, |k| k.backlog_us(now_us));
        obs.chaos_down = self
            .drained
            .iter()
            .zip(&self.chaos_outed)
            .filter(|(&d, &o)| d || o)
            .count() as u32;
        // Everything still pending with `tick < b_next` is exactly the
        // coming window: `run_until` consumed every batch due before
        // the boundary.
        let end = self.arrivals[self.arr_ptr..].partition_point(|&(t, _, _)| t < b_next);
        CellSnapshot {
            obs,
            window: self.arrivals[self.arr_ptr..self.arr_ptr + end].to_vec(),
        }
    }

    /// Applies one window's fleet directives: resets the admission
    /// quota, removes spilled requests from this cell's pending
    /// arrivals, and lands cohorts other cells redirected here. Spill
    /// accounting books the outflow at the source and the inflow at the
    /// destination, each into its own worker's accumulator, so the
    /// merged flow matrix conserves exactly.
    fn apply_plan(&mut self, plan: CellPlan, acc: &mut ShardTotals) {
        self.flow.quota_left = plan.quota.unwrap_or(u64::MAX);
        for &(rel, n) in &plan.deduct {
            self.arrivals[self.arr_ptr + rel].2 -= n;
        }
        for &(dst, n) in &plan.outflow {
            acc.spill_out += n;
            *acc.spill_flow.entry((self.cell_idx, dst)).or_insert(0) += n;
        }
        if !plan.inflow.is_empty() {
            acc.spilled_cohorts += plan.inflow.len() as u64;
            for &(_, _, n) in &plan.inflow {
                acc.spill_in += n;
            }
            let first = plan.inflow[0].0;
            self.inflow.extend_from_slice(&plan.inflow);
            // Rewind the idle jump if the cell had already skipped past
            // the first redirected cohort: between the rewound tick and
            // the previously computed jump target nothing else is due
            // (the jump was the minimum over every channel), so the
            // extra processed ticks only route the new inflow.
            self.tick = self.tick.min(first);
        }
    }

    /// End-of-horizon accounting: closes every remaining idle span and
    /// books pending downtime and in-flight KV bytes.
    fn finalize(&mut self, shared: &Shared<'_>, acc: &mut ShardTotals) {
        let ticks = shared.cfg.num_ticks();
        let tick_us = shared.knobs.tick_us;
        for i in 0..self.insts.len() {
            accrue_idle_span(
                acc,
                &shared.power,
                tick_us,
                shared.nominal_ci,
                &self.insts,
                self.ctl.as_ref(),
                &self.clamp,
                &self.phases,
                &mut self.accrued,
                i,
                ticks,
            );
        }
        let horizon_us = ticks as u64 * tick_us;
        for inst in &self.insts {
            acc.downtime_us += inst.pending_downtime_us(horizon_us);
        }
        if let Some(link) = &self.kv {
            acc.kv_bytes_inflight_end += link.inflight_bytes();
        }
    }
}

/// The pure fleet planner: turns the published snapshots into one
/// [`CellPlan`] per cell. Runs on exactly one thread per window, reads
/// only the snapshots, and is deterministic in them — which is what
/// keeps balanced runs byte-identical at any `(shards, threads)`.
///
/// Spill split: for each source directive the planner walks the source's
/// window events with a cumulative permille floor
/// (`take_j = ⌊cum_j·p/1000⌋ − ⌊cum_{j−1}·p/1000⌋`, so the total spilled
/// is exactly `⌊total·p/1000⌋` regardless of how arrivals batch), and
/// assigns each taken cohort to the destination whose share of the
/// spill so far lags its weight the most (largest `w·spilled − given·Σw`,
/// ties to the lowest index).
fn plan_fleet(
    shared: &Shared<'_>,
    controller: &mut (dyn FleetController + Send),
    bal_window_s: f64,
    b: u32,
    snaps: Vec<CellSnapshot>,
) -> Vec<CellPlan> {
    let cells = snaps.len();
    let mut obs = FleetObs::new(b, bal_window_s);
    obs.phase_split = shared.split.is_some();
    obs.capacity_rps_per_instance = shared.cap_rps;
    obs.max_queue = shared.knobs.max_queue;
    let mut windows: Vec<Vec<(u32, u16, u64)>> = Vec::with_capacity(cells);
    for s in snaps {
        obs.cells.push(s.obs);
        windows.push(s.window);
    }
    let directives = controller.plan(&obs);
    let mut plans: Vec<CellPlan> = (0..cells).map(|_| CellPlan::default()).collect();
    // Admission-order position per tenant, for the destination-side sort.
    let mut pos_of = vec![0u16; shared.classes.len()];
    for (pos, &ti) in shared.priority_order.iter().enumerate() {
        pos_of[ti as usize] = pos as u16;
    }
    // Directives are sanitized here, not trusted: unknown cells are
    // dropped, the last directive per cell wins, self/unknown spill
    // targets are filtered, and the permille is capped at 1000.
    let mut chosen: Vec<Option<usize>> = vec![None; cells];
    for (i, d) in directives.iter().enumerate() {
        if (d.cell as usize) < cells {
            chosen[d.cell as usize] = Some(i);
        }
    }
    let mut staged: Vec<(u32, u16, u32, u32, u16, u64)> = Vec::new();
    for (src, pick) in chosen.iter().enumerate() {
        let Some(di) = pick else { continue };
        let d = &directives[*di];
        plans[src].quota = d.admission_quota;
        let p = u64::from(d.spill_permille.min(1000));
        if p == 0 {
            continue;
        }
        let targets: Vec<(u32, u64)> = d
            .spill_to
            .iter()
            .copied()
            .filter(|&(dst, w)| (dst as usize) < cells && dst != d.cell && w > 0)
            .collect();
        if targets.is_empty() {
            continue;
        }
        let wsum: u64 = targets.iter().map(|&(_, w)| w).sum();
        let mut given = vec![0u64; targets.len()];
        let mut spilled = 0u64;
        let mut cum = 0u64;
        for (rel, &(t, ti, c)) in windows[src].iter().enumerate() {
            let prev = cum * p / 1000;
            cum += c;
            let take = cum * p / 1000 - prev;
            if take == 0 {
                continue;
            }
            spilled += take;
            let mut best = 0usize;
            let mut best_score = i128::MIN;
            for (j, &(_, w)) in targets.iter().enumerate() {
                let score = w as i128 * spilled as i128 - given[j] as i128 * wsum as i128;
                if score > best_score {
                    best_score = score;
                    best = j;
                }
            }
            given[best] += take;
            plans[src].deduct.push((rel, take));
            staged.push((t, pos_of[ti as usize], d.cell, targets[best].0, ti, take));
        }
        for (j, &(dst, _)) in targets.iter().enumerate() {
            if given[j] > 0 {
                plans[src].outflow.push((dst, given[j]));
            }
        }
    }
    // Destination inflow in `(tick, admission order, source)` order: a
    // fixed total order, so every dest routes its spilled cohorts
    // identically at any thread count.
    staged.sort_unstable();
    for (t, _, _, dst, ti, n) in staged {
        plans[dst as usize].inflow.push((t, ti, n));
    }
    plans
}

/// Steps the whole fleet window-by-window under a fleet-scope balancer.
///
/// Each fleet tick is a snapshot → pure function → commands cycle:
/// every cell runs to the boundary ([`CellSim::run_until`]), publishes
/// a read-only snapshot, exactly one thread runs the
/// [`FleetController`] over the assembled [`FleetObs`] (cells still
/// never read each other's state — only the planner sees the fleet),
/// and every cell applies its own directive before the next window.
/// Worker `w` owns the same cells as in the cell-major path and keeps
/// them all alive in one [`WorkerAcc`], so the merge — and with it the
/// byte-identity guarantee over `(shards, threads)` — is unchanged.
fn run_balanced(
    shared: &Shared<'_>,
    seed: u64,
    shards: u32,
    threads: u32,
    bal: &BalancerConfig,
) -> Vec<WorkerAcc> {
    let cfg = shared.cfg;
    let cells = cfg.num_cells();
    let ticks = cfg.num_ticks();
    let tick_us = shared.knobs.tick_us;
    let bal_ticks = ((bal.interval_s / cfg.tick_s).round() as u32).max(1);
    let bal_window_s = bal_ticks as f64 * cfg.tick_s;
    // Fleet-tick rendezvous state: one slot per cell for the published
    // snapshot and the returned plan. Each cell's slot is written and
    // read by its owning worker only (plus the leader), so the locks
    // are uncontended; they exist to make the handoff race-free.
    let snaps: Vec<Mutex<Option<CellSnapshot>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let plans: Vec<Mutex<Option<CellPlan>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let controller: Mutex<Box<dyn FleetController + Send>> = Mutex::new(bal.build());
    let barrier = Barrier::new(threads as usize);
    on_workers(threads, |w| {
        let mut out = WorkerAcc::new(shared);
        // Cells constructed in ownership order (metric-registration
        // order is part of the series bytes).
        let mut sims: Vec<CellSim<'_>> = worker_cells(cells, shards, threads, w)
            .map(|c| CellSim::new(shared, seed, c, &mut out))
            .collect();
        // One sweep through the owned cells per window: apply the
        // previous window's plan, run to the boundary, and publish —
        // per cell, while its state is hot in cache. Sweeping the fleet
        // once per window instead of three times is what keeps the
        // balancer's overhead small at 100k-instance scale, where a
        // full pass over cell state is memory-bound.
        let mut have_plans = false;
        let mut b = bal_ticks.min(ticks);
        loop {
            let b_next = b.saturating_add(bal_ticks).min(ticks);
            let now_us = b as u64 * tick_us;
            let publishing = b < ticks;
            for sim in sims.iter_mut() {
                if have_plans {
                    let plan = plans[sim.cell_idx as usize]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("leader planned every cell");
                    sim.apply_plan(plan, &mut out.acc);
                }
                sim.run_until(shared, b, &mut out);
                if publishing {
                    let snap = sim.publish(now_us, b_next);
                    *snaps[sim.cell_idx as usize].lock().unwrap() = Some(snap);
                }
            }
            if !publishing {
                break;
            }
            if barrier.wait().is_leader() {
                let published: Vec<CellSnapshot> = snaps
                    .iter()
                    .map(|m| m.lock().unwrap().take().expect("every cell published"))
                    .collect();
                let mut ctl = controller.lock().unwrap();
                let fleet_plans = plan_fleet(shared, ctl.as_mut(), bal_window_s, b, published);
                for (c, p) in fleet_plans.into_iter().enumerate() {
                    *plans[c].lock().unwrap() = Some(p);
                }
            }
            barrier.wait();
            have_plans = true;
            b = b_next;
        }
        for sim in sims.iter_mut() {
            sim.finalize(shared, &mut out.acc);
        }
        out.finish()
    })
}

/// Steps every cell `cells` yields through the whole horizon on the
/// event-queue scheduler, one cell at a time, into one [`WorkerAcc`].
///
/// Instead of walking every instance every tick, each cell keeps a
/// min-heap of *wakeups* — `(tick, instance)` failure/recovery events
/// plus generic "process this tick" entries for chaos window edges and
/// repair-dispatch readiness — alongside periodic channels (control
/// interval, boot completions, series sampling, next KV-transfer
/// landing) and the precomputed arrival schedule. A tick is *processed*
/// only when some channel is due or an instance holds work; between
/// processed ticks the cell provably does nothing, and idle energy is
/// billed lazily per instance when its span closes. Spurious wakeups
/// are byte-safe by construction (every phase below no-ops when nothing
/// is due — the tick loop ran all of them every tick); only a missing
/// wakeup could diverge, which the engine-equivalence goldens pin.
fn simulate_cells(shared: &Shared<'_>, seed: u64, cells: impl Iterator<Item = u32>) -> WorkerAcc {
    let ticks = shared.cfg.num_ticks();
    let mut out = WorkerAcc::new(shared);
    for cell_idx in cells {
        let mut sim = CellSim::new(shared, seed, cell_idx, &mut out);
        sim.run_until(shared, ticks, &mut out);
        sim.finalize(shared, &mut out.acc);
    }
    out.finish()
}

/// The cells worker `w` of `threads` steps, in stepping order: shard `s`
/// owns cells `[s·cells/shards, (s+1)·cells/shards)`, and the worker
/// takes shards `w, w + threads, w + 2·threads, …`.
fn worker_cells(cells: u32, shards: u32, threads: u32, w: u32) -> impl Iterator<Item = u32> {
    let bounds = move |s: u32| (s as u64 * cells as u64 / shards as u64) as u32;
    (w..shards)
        .step_by(threads as usize)
        .flat_map(move |s| bounds(s)..bounds(s + 1))
}

/// Runs `work(w)` for every worker `w < threads` — on the calling
/// thread when there is only one — and returns the results in worker
/// order.
fn on_workers<T: Send>(threads: u32, work: impl Fn(u32) -> T + Sync) -> Vec<T> {
    if threads == 1 {
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    })
}

/// Steps the whole fleet on `threads` workers (`shards` clamped to the
/// cell count, `threads` to `shards`) and returns one accumulator set
/// per worker, in worker order.
fn run_workers(shared: &Shared<'_>, seed: u64, shards: u32, threads: u32) -> Vec<WorkerAcc> {
    let cells = shared.cfg.num_cells();
    let shards = shards.clamp(1, cells);
    let threads = threads.clamp(1, shards);
    match shared.cfg.ctrl.as_ref().and_then(|c| c.balancer.as_ref()) {
        Some(bal) => run_balanced(shared, seed, shards, threads, bal),
        None => on_workers(threads, |w| {
            simulate_cells(shared, seed, worker_cells(cells, shards, threads, w))
        }),
    }
}

/// A fleet run together with whatever telemetry the config asked for.
///
/// The `report` is byte-identical for any `(shards, threads)` and for
/// any [`TelemetryConfig`]; `series` and `trace` are themselves
/// shard/thread-invariant (deterministic merges over deterministic
/// worker-local recordings). Only `profile` is wall-clock and varies
/// between runs — it must never feed back into simulation state.
#[derive(Debug)]
pub struct FleetRun {
    /// The deterministic fleet report.
    pub report: FleetReport,
    /// Merged time-series recorder (present when `series_dt_us > 0`).
    pub series: Option<SeriesRecorder>,
    /// Merged, totally-ordered trace events (present when `trace_every > 0`).
    pub trace: Option<Vec<TraceEvent>>,
    /// Engine self-profile (present when `profile` was requested).
    pub profile: Option<PhaseProfile>,
}

/// Runs the fleet partitioned into `shards` shards on up to `threads`
/// OS threads. The partition affects wall-clock only: the report is
/// byte-identical for any `(shards, threads)`. Shards only decide which
/// worker steps which cells; each worker accumulates into one result set,
/// so result memory scales with `threads`, not `shards`.
///
/// # Examples
///
/// ```
/// use litegpu_fleet::engine::{run_sharded, FleetConfig};
///
/// let mut cfg = FleetConfig::lite_demo();
/// cfg.instances = 16;
/// cfg.cell_size = 8;
/// cfg.horizon_s = 600.0;
/// // Same seed ⇒ the same report for any shard/thread partition.
/// let serial = run_sharded(&cfg, 42, 1, 1).unwrap();
/// let sharded = run_sharded(&cfg, 42, 4, 2).unwrap();
/// assert_eq!(serial.to_json(), sharded.to_json());
/// ```
pub fn run_sharded(cfg: &FleetConfig, seed: u64, shards: u32, threads: u32) -> Result<FleetReport> {
    Ok(run_sharded_full(cfg, seed, shards, threads)?.report)
}

/// Prices the step-cost table a run of `cfg` steps on. A DVFS-controlled
/// fleet prices the full SLO_MIN_CLOCK..=1.0 operating-point grid; so
/// does any run with thermal-excursion chaos (the clamp needs
/// sub-nominal rows to land on). Everything else prices nominal only
/// (same table, one clock row).
fn build_lut(cfg: &FleetConfig) -> Result<StepCostTable> {
    let clocks: Vec<f64> = if cfg.dvfs_enabled() || cfg.chaos.has_thermal() {
        power_mgmt::operating_points()
    } else {
        vec![1.0]
    };
    Ok(StepCostTable::build_with_clocks(
        &cfg.gpu,
        &cfg.arch,
        cfg.gpus_per_instance,
        &cfg.params,
        &clocks,
    )?)
}

impl<'a> Shared<'a> {
    fn new(cfg: &'a FleetConfig, lut: &'a StepCostTable) -> Self {
        let ticks = cfg.num_ticks();
        let knobs = cfg.knobs();
        let tick_us = knobs.tick_us;
        let lambda: Vec<Vec<f64>> = cfg
            .workload
            .share_fractions()
            .iter()
            .zip(&cfg.workload.tenants)
            .map(|(share, t)| {
                let base = cfg.workload.rate_per_instance_s * share * cfg.tick_s;
                (0..ticks)
                    .map(|k| base * t.pattern.multiplier_at((k as f64 + 0.5) * cfg.tick_s))
                    .collect()
            })
            .collect();
        Shared {
            cfg,
            lut,
            rates: cfg.failure_rates(),
            power: cfg.instance_power(lut.clock_points()),
            cap_rps: cfg.capacity_rps(lut),
            clock_points: cfg.clock_obs(lut, &knobs),
            nominal_ci: lut.nominal_clock_idx() as u8,
            split: match &cfg.serving {
                ServingMode::Monolithic => None,
                ServingMode::PhaseSplit {
                    prefill_fraction,
                    kv_link,
                } => Some(SplitShared {
                    prefill_fraction: *prefill_fraction,
                    kv_bytes_per_s: (kv_link.bandwidth_gbps * 1e9).round() as u64,
                    kv_max_backlog_us: (kv_link.max_backlog_s * 1e6).round() as u64,
                    prefill_capacity_rps: cfg.prefill_capacity_rps_at(lut, lut.nominal_clock_idx()),
                    decode_capacity_rps: cfg.decode_capacity_rps_at(lut, lut.nominal_clock_idx()),
                }),
            },
            priority_order: cfg.workload.priority_order(),
            classes: cfg.workload.tenants.iter().map(|t| t.priority).collect(),
            arr_plans: plan_arrivals(&lambda, cfg.cell_size as f64),
            lambda,
            chaos: compile_cell_chaos(cfg, lut.clock_points()),
            series_every: if cfg.telemetry.series_dt_us > 0 {
                (((cfg.telemetry.series_dt_us + tick_us / 2) / tick_us) as u32).max(1)
            } else {
                0
            },
            knobs,
        }
    }
}

/// [`run_sharded`] plus the telemetry artefacts requested by
/// `cfg.telemetry`: merged series, merged trace, and the engine
/// self-profile. Like the report, result memory scales with `threads`,
/// not `shards`.
pub fn run_sharded_full(
    cfg: &FleetConfig,
    seed: u64,
    shards: u32,
    threads: u32,
) -> Result<FleetRun> {
    cfg.validate()?;
    let lut = build_lut(cfg)?;
    let shared = Shared::new(cfg, &lut);
    let tenants_meta = cfg.tenant_meta(&shared.knobs);
    let workers = run_workers(&shared, seed, shards, threads);

    // Merge in fixed worker order so series/trace bytes are invariant
    // to the thread schedule. Series merging is per-name addition
    // (commutative), and the trace gets a total-order sort afterwards,
    // but fixed order keeps the invariant self-evident.
    let merge_start = Instant::now();
    let tel = &cfg.telemetry;
    let mut totals = ShardTotals::new(cfg.workload.tenants.len(), lut.num_clocks());
    let mut series: Option<SeriesRecorder> = None;
    let mut profile: Option<PhaseProfile> = tel.profile.then(PhaseProfile::new);
    let mut traces: Vec<Vec<TraceEvent>> = Vec::with_capacity(workers.len());
    for w in workers {
        totals.merge(&w.acc);
        if let Some(s) = w.series {
            match series.as_mut() {
                Some(m) => m.merge(&s),
                None => series = Some(s),
            }
        }
        traces.push(w.trace);
        if let (Some(p), Some(wp)) = (profile.as_mut(), w.prof.p.as_ref()) {
            p.merge(wp);
        }
    }
    // Sort into the schema's total order (field order is the sort key),
    // making the byte stream independent of shard boundaries. Each worker
    // arrives pre-sorted, so a lone worker's buffer is already final and
    // otherwise the stable (run-merging) sort only pays the k-way merge
    // of the per-worker runs, in one buffer allocated at its final size.
    let trace: Option<Vec<TraceEvent>> = (tel.trace_every > 0).then(|| {
        if traces.len() == 1 {
            return traces.pop().expect("one worker");
        }
        let mut t = traces.concat();
        t.sort();
        t
    });
    if let Some(p) = profile.as_mut() {
        p.record(PHASE_MERGE, merge_start.elapsed().as_nanos() as u64);
    }
    let cells = cfg.num_cells();
    let horizon_s_eff = cfg.num_ticks() as f64 * cfg.tick_s;
    let report = FleetReport::finalize(
        &totals,
        RunMeta {
            gpu: cfg.gpu.name.clone(),
            model: cfg.arch.name.clone(),
            controller: cfg
                .ctrl
                .as_ref()
                .map_or_else(|| "none".to_string(), |c| c.label()),
            serving: cfg.serving.label(),
            phase_split: !matches!(cfg.serving, ServingMode::Monolithic),
            clock_points: if cfg.dvfs_enabled() {
                lut.clock_points().to_vec()
            } else {
                Vec::new()
            },
            instances: cfg.instances,
            gpus_per_instance: cfg.gpus_per_instance,
            cells,
            spares: cells * cfg.spares_per_cell,
            crews_per_cell: cfg.repair_crews_per_cell,
            chaos: !cfg.chaos.events.is_empty(),
            balancer: cfg.ctrl.as_ref().is_some_and(|c| c.balancer.is_some()),
            horizon_s: horizon_s_eff,
            tick_s: cfg.tick_s,
            tenants: tenants_meta,
        },
    );
    Ok(FleetRun {
        report,
        series,
        trace,
        profile,
    })
}

/// Runs the fleet with maximum parallelism (one shard per cell, one
/// thread per available core). Same result as any other sharding, and
/// result memory scales with the thread count, not with the per-cell
/// shards: each worker accumulates all of its cells into one set.
pub fn run(cfg: &FleetConfig, seed: u64) -> Result<FleetReport> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    run_sharded(cfg, seed, cfg.num_cells(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficPattern;

    fn small_cfg() -> FleetConfig {
        let mut c = FleetConfig::h100_demo();
        c.instances = 24;
        c.cell_size = 4;
        c.horizon_s = 900.0;
        c.failure_acceleration = 100_000.0;
        c
    }

    fn small_ctrl_cfg() -> FleetConfig {
        let mut c = FleetConfig::lite_ctrl_demo();
        c.instances = 24;
        c.cell_size = 4;
        c.horizon_s = 900.0;
        c.failure_acceleration = 100_000.0;
        c
    }

    #[test]
    fn small_fleet_serves_and_fails() {
        let r = run_sharded(&small_cfg(), 7, 1, 1).unwrap();
        assert!(r.arrived > 0);
        assert!(r.completed > 0);
        assert!(r.generated_tokens > r.completed);
        assert!(r.failures > 0, "acceleration should inject failures");
        assert!(r.availability < 1.0 && r.availability > 0.5);
        assert!(r.ttft_p50_s > 0.0);
        assert_eq!(r.controller, "none");
        // Energy is first-class even without a controller.
        assert!(r.energy_j > 0);
        assert!(r.idle_energy_j > 0);
        assert!(r.energy_per_token_j > 0.0);
        assert!(r.avg_live_instances > 0.0 && r.avg_live_instances <= 24.0);
        // Arrivals route at the cell level even without a control plane;
        // only scaling stays off.
        assert_eq!(r.scale_ups + r.scale_downs, 0);
        assert_eq!(r.routed + r.rejected, r.arrived);
        // The single default tenant owns the whole fleet's numbers.
        assert_eq!(r.per_tenant.len(), 1);
        let t = &r.per_tenant[0];
        assert_eq!(t.name, "default");
        assert_eq!(t.priority, "interactive");
        assert_eq!(t.arrived, r.arrived);
        assert_eq!(t.completed, r.completed);
        assert_eq!(t.generated_tokens, r.generated_tokens);
        assert!((t.ttft_attainment - r.ttft_attainment).abs() < 1e-12);
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_the_report() {
        let cfg = small_cfg();
        let base = run_sharded(&cfg, 42, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (6, 4), (6, 8)] {
            let r = run_sharded(&cfg, 42, shards, threads).unwrap();
            assert_eq!(r, base, "shards={shards} threads={threads}");
            assert_eq!(r.to_json(), base.to_json());
        }
        let auto = run(&cfg, 42).unwrap();
        assert_eq!(auto, base);
    }

    #[test]
    fn merge_receives_one_accumulator_set_per_worker() {
        // One shard per cell: a per-shard accumulator set would hand the
        // merge 8 sets instead of 2.
        let mut cfg = small_ctrl_cfg();
        cfg.instances = 32;
        assert_eq!(cfg.num_cells(), 8);
        cfg.telemetry.series_dt_us = 60_000_000;
        cfg.telemetry.trace_every = 16;
        let mut balanced = cfg.clone();
        balanced.ctrl = balanced
            .ctrl
            .map(|c| c.with_balancer(BalancerConfig::default()));
        for (label, cfg) in [("cell-major", cfg), ("balanced", balanced)] {
            let lut = build_lut(&cfg).unwrap();
            let shared = Shared::new(&cfg, &lut);
            let workers = run_workers(&shared, 42, 8, 2);
            assert_eq!(workers.len(), 2, "{label}: one set per worker");
            let arrived: u64 = workers.iter().map(|w| w.acc.arrived).sum();
            let single = run_sharded(&cfg, 42, 1, 1).unwrap();
            assert_eq!(arrived, single.arrived, "{label}: every cell stepped once");
            assert!(workers.iter().all(|w| w.series.is_some()), "{label}");
        }
    }

    #[test]
    fn controlled_fleet_scales_routes_and_stays_deterministic() {
        let cfg = small_ctrl_cfg();
        let base = run_sharded(&cfg, 11, 1, 1).unwrap();
        assert_eq!(base.controller, "autoscale+gate(GateToEfficiency)+route");
        assert!(base.completed > 0);
        assert!(base.routed > 0, "arrivals must flow through the router");
        assert!(base.scale_downs > 0, "quiet midnight load must park");
        assert!(base.energy_j > 0);
        for (shards, threads) in [(3, 1), (6, 4)] {
            let r = run_sharded(&cfg, 11, shards, threads).unwrap();
            assert_eq!(r.to_json(), base.to_json(), "shards={shards}");
        }
    }

    #[test]
    fn parking_reduces_idle_energy() {
        // Gated autoscaling at low load must burn less idle energy than
        // the same fleet pinned fully live.
        let mut quiet = small_ctrl_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.1;
        let controlled = run_sharded(&quiet, 3, 2, 2).unwrap();
        let mut fixed = quiet.clone();
        fixed.ctrl = None;
        let uncontrolled = run_sharded(&fixed, 3, 2, 2).unwrap();
        assert!(
            controlled.idle_energy_j < uncontrolled.idle_energy_j / 2,
            "controlled {} vs uncontrolled {}",
            controlled.idle_energy_j,
            uncontrolled.idle_energy_j
        );
        assert!(controlled.avg_live_instances < uncontrolled.avg_live_instances);
    }

    #[test]
    fn parking_without_a_gater_keeps_paying_the_idle_floor() {
        // An autoscaler with no power module must not grant zero-draw
        // parking: parked slots stay warm (idle floor, warm boots), so
        // idle energy sits well above the gated fleet's.
        let mut quiet = small_ctrl_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.1;
        let gated = run_sharded(&quiet, 3, 2, 2).unwrap();
        let mut ungated = quiet.clone();
        ungated.ctrl.as_mut().unwrap().power = None;
        let warm_parked = run_sharded(&ungated, 3, 2, 2).unwrap();
        assert_eq!(warm_parked.controller, "autoscale+route");
        assert!(warm_parked.scale_downs > 0);
        assert!(
            warm_parked.idle_energy_j > 2 * gated.idle_energy_j,
            "ungated parking {} J should pay the floor vs gated {} J",
            warm_parked.idle_energy_j,
            gated.idle_energy_j
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_cfg();
        let a = run_sharded(&cfg, 1, 2, 2).unwrap();
        let b = run_sharded(&cfg, 2, 2, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn overload_sheds_best_effort_and_shields_interactive() {
        // A controlled multi-tenant fleet driven well past its capacity:
        // admission control must shed best-effort arrivals (and only
        // those), leaving the interactive tenant a far larger served
        // fraction than the scavenger.
        let mut cfg = small_ctrl_cfg();
        cfg.failure_acceleration = 0.0;
        cfg.workload = WorkloadSpec::multi_tenant_demo(12.0);
        let r = run_sharded(&cfg, 5, 2, 2).unwrap();
        assert_eq!(r.per_tenant.len(), 3);
        assert!(r.admission_shed > 0, "overload must trigger admission shed");
        let by_name = |n: &str| r.per_tenant.iter().find(|t| t.name == n).unwrap();
        let (chat, scavenge) = (by_name("chat"), by_name("scavenge"));
        assert_eq!(chat.priority, "interactive");
        assert_eq!(scavenge.priority, "best-effort");
        // Admission control never touches the guaranteed classes.
        assert_eq!(chat.shed, 0);
        assert!(scavenge.shed > 0);
        let served = |t: &crate::report::TenantReport| t.completed as f64 / t.arrived as f64;
        assert!(
            served(chat) > 4.0 * served(scavenge),
            "chat {} vs scavenge {}",
            served(chat),
            served(scavenge)
        );
        // Conservation: every arrival is routed or rejected, and the
        // rejects decompose into the two shed kinds plus queue overflow.
        assert_eq!(r.routed + r.rejected, r.arrived);
        assert!(r.rejected >= r.routing_shed + r.admission_shed);
        for t in &r.per_tenant {
            assert_eq!(t.routed + t.rejected + t.shed, t.arrived, "{}", t.name);
        }
    }

    fn small_split_cfg() -> FleetConfig {
        let mut c = FleetConfig::h100_demo().with_phase_split();
        c.instances = 24;
        c.cell_size = 8;
        c.horizon_s = 900.0;
        c.failure_acceleration = 0.0;
        c.workload.rate_per_instance_s = 3.0;
        c
    }

    #[test]
    fn phase_split_serves_and_accounts_kv() {
        let split = run_sharded(&small_split_cfg(), 7, 1, 1).unwrap();
        assert!(split.serving.starts_with("phase-split"));
        assert!(split.completed > 0);
        let kv = split
            .kv_transfer
            .as_ref()
            .expect("split run has kv section");
        assert!(kv.transfers > 0);
        assert_eq!(
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end,
            "KV byte conservation"
        );
        assert!(kv.link_utilization > 0.0 && kv.link_utilization < 1.0);
        assert!(kv.delay_p99_s > 0.0, "transfer delay must be visible");
        assert_eq!(kv.backpressure_stalls, 0, "default link must not saturate");
        // 8-slot cells at the 25% demo fraction: 2 prefill + 6 decode.
        assert!((kv.prefill_pool_mean - 6.0).abs() < 1e-9);
        assert!((kv.decode_pool_mean - 18.0).abs() < 1e-9);
        // Transfer delay lands in TTFT: the split fleet pays more than
        // the monolithic twin on first-token latency...
        let mut mono_cfg = small_split_cfg();
        mono_cfg.serving = ServingMode::Monolithic;
        let mono = run_sharded(&mono_cfg, 7, 1, 1).unwrap();
        assert!(mono.kv_transfer.is_none());
        assert!(split.ttft_p50_s > mono.ttft_p50_s);
        // ...but decode books are isolated from prefill interference:
        // the monolithic twin's p99 token gap carries whole prefills.
        assert!(
            split.tbt_p99_s < mono.tbt_p99_s * 0.5,
            "split p99 TBT {} vs mono {}",
            split.tbt_p99_s,
            mono.tbt_p99_s
        );
        // Phase splitting reshuffles work, not volume.
        assert!(split.completed as f64 > 0.99 * mono.completed as f64);
    }

    #[test]
    fn phase_split_report_is_sharding_invariant() {
        let cfg = small_split_cfg();
        let base = run_sharded(&cfg, 42, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (3, 8)] {
            let r = run_sharded(&cfg, 42, shards, threads).unwrap();
            assert_eq!(
                r.to_json(),
                base.to_json(),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn saturated_kv_link_backpressures_ttft_not_tbt() {
        let generous = run_sharded(&small_split_cfg(), 9, 3, 2).unwrap();
        let mut starved_cfg = small_split_cfg();
        starved_cfg.serving = ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink {
                bandwidth_gbps: 2.0,
                max_backlog_s: 0.25,
            },
        };
        let starved = run_sharded(&starved_cfg, 9, 3, 2).unwrap();
        let kv = starved.kv_transfer.as_ref().unwrap();
        assert!(
            kv.backpressure_stalls > 0,
            "starved link must stall prefill"
        );
        assert!(kv.link_utilization > generous.kv_transfer.as_ref().unwrap().link_utilization);
        // The stall queues prompts, so TTFT explodes...
        assert!(
            starved.ttft_p99_s > 10.0 * generous.ttft_p99_s,
            "starved {} vs generous {}",
            starved.ttft_p99_s,
            generous.ttft_p99_s
        );
        // ...while the decode pool's token gaps stay tight (isolation).
        assert!(starved.tbt_p99_s < generous.tbt_p99_s * 1.5);
    }

    #[test]
    fn oversized_prefill_batch_configs_still_deliver() {
        // A prefill launch cap beyond the decode batch limit must not
        // produce undeliverable cohorts that would wedge the KV FIFO:
        // the prefill-phase cap clamps to lut.max_batch.
        let mut cfg = small_split_cfg();
        cfg.max_prefill_batch = 10_000;
        let r = run_sharded(&cfg, 3, 2, 2).unwrap();
        let kv = r.kv_transfer.as_ref().unwrap();
        assert!(r.completed > 0);
        assert!(kv.transfers > 0);
        assert!(
            kv.bytes_delivered > kv.bytes_queued / 2,
            "cohorts must keep fitting decode batches: {} delivered of {}",
            kv.bytes_delivered,
            kv.bytes_queued
        );
    }

    #[test]
    fn phase_split_survives_failures_and_conserves_arrivals() {
        let mut cfg = small_split_cfg();
        cfg.failure_acceleration = 100_000.0;
        let r = run_sharded(&cfg, 5, 3, 2).unwrap();
        assert!(r.failures > 0);
        assert!(r.completed > 0);
        assert!(r.retried > 0, "decode failures must requeue work");
        assert_eq!(r.routed + r.rejected, r.arrived);
        for t in &r.per_tenant {
            assert_eq!(t.routed + t.rejected + t.shed, t.arrived, "{}", t.name);
        }
        let kv = r.kv_transfer.as_ref().unwrap();
        assert_eq!(
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end
        );
    }

    #[test]
    fn controlled_phase_split_is_phase_aware_and_deterministic() {
        let mut cfg = FleetConfig::lite_ctrl_demo().with_phase_split();
        cfg.instances = 24;
        cfg.cell_size = 8;
        cfg.horizon_s = 900.0;
        cfg.failure_acceleration = 50_000.0;
        cfg.workload.rate_per_instance_s = 3.0;
        let base = run_sharded(&cfg, 11, 1, 1).unwrap();
        assert_eq!(base.controller, "autoscale+gate(GateToEfficiency)+route");
        assert!(base.serving.starts_with("phase-split"));
        assert!(base.completed > 0);
        assert!(base.routed > 0);
        let kv = base.kv_transfer.as_ref().unwrap();
        assert!(kv.transfers > 0);
        assert!(kv.prefill_pool_mean > 0.0 && kv.decode_pool_mean > 0.0);
        for (shards, threads) in [(3, 1), (3, 4)] {
            let r = run_sharded(&cfg, 11, shards, threads).unwrap();
            assert_eq!(r.to_json(), base.to_json(), "shards={shards}");
        }
    }

    #[test]
    fn invalid_phase_split_configs_rejected() {
        let bad_fraction = |f: f64| {
            let mut c = small_split_cfg();
            c.serving = ServingMode::PhaseSplit {
                prefill_fraction: f,
                kv_link: KvLink::for_instance(&c.gpu, c.gpus_per_instance),
            };
            run_sharded(&c, 1, 1, 1)
        };
        assert!(bad_fraction(0.0).is_err());
        assert!(bad_fraction(1.0).is_err());
        assert!(bad_fraction(f64::NAN).is_err());
        let mut c = small_split_cfg();
        c.serving = ServingMode::PhaseSplit {
            prefill_fraction: 0.25,
            kv_link: KvLink {
                bandwidth_gbps: 0.0,
                max_backlog_s: 0.25,
            },
        };
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        // A one-instance cell cannot hold both pools.
        let mut c = small_split_cfg();
        c.instances = 25; // 3 cells of 8 + 1 cell of 1
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_split_cfg();
        c.cell_size = 1;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
    }

    fn small_dvfs_cfg() -> FleetConfig {
        let mut c = small_ctrl_cfg();
        c.ctrl = c.ctrl.map(|ctrl| ctrl.with_dvfs());
        c
    }

    #[test]
    fn dvfs_fleet_saves_energy_and_reports_its_clocks() {
        let nominal = run_sharded(&small_ctrl_cfg(), 9, 2, 2).unwrap();
        assert!(nominal.dvfs.is_none(), "no dvfs policy, no dvfs section");
        let dvfs = run_sharded(&small_dvfs_cfg(), 9, 2, 2).unwrap();
        assert_eq!(
            dvfs.controller,
            "autoscale+dvfs+gate(GateToEfficiency)+route"
        );
        let d = dvfs.dvfs.as_ref().expect("dvfs run has a dvfs section");
        // The grid spans SLO_MIN_CLOCK..=1.0 and the quiet demo fleet
        // spends real time below nominal.
        assert_eq!(d.clock_points.last(), Some(&1.0));
        assert!(d.clock_points.len() >= 3);
        assert!((d.clock_tick_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(d.downclocked_share > 0.5, "share {}", d.downclocked_share);
        assert!(d.mean_clock < 1.0 && d.mean_clock >= d.clock_points[0]);
        assert!(d.retunes > 0);
        // Down-clocking buys real energy at near-equal served volume...
        assert!(d.energy_saved_j > 0);
        assert_eq!(d.nominal_dyn_energy_j, d.dyn_energy_j + d.energy_saved_j);
        assert!(
            dvfs.energy_per_token_j < 0.9 * nominal.energy_per_token_j,
            "dvfs {} vs nominal {}",
            dvfs.energy_per_token_j,
            nominal.energy_per_token_j
        );
        assert!(dvfs.completed as f64 > 0.99 * nominal.completed as f64);
        // ...without giving up interactive SLO attainment.
        assert!(dvfs.ttft_attainment > nominal.ttft_attainment - 0.005);
    }

    #[test]
    fn dvfs_report_is_sharding_invariant() {
        let cfg = small_dvfs_cfg();
        let base = run_sharded(&cfg, 17, 1, 1).unwrap();
        for (shards, threads) in [(2, 1), (3, 2), (6, 8)] {
            let r = run_sharded(&cfg, 17, shards, threads).unwrap();
            assert_eq!(
                r.to_json(),
                base.to_json(),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn dvfs_composes_with_phase_split_pools() {
        let mut cfg = small_dvfs_cfg();
        cfg.instances = 24;
        cfg.cell_size = 8;
        cfg.failure_acceleration = 0.0;
        cfg.workload.rate_per_instance_s = 3.0;
        cfg = cfg.with_phase_split();
        let r = run_sharded(&cfg, 13, 3, 2).unwrap();
        assert!(r.serving.starts_with("phase-split"));
        let d = r.dvfs.as_ref().expect("dvfs section");
        assert!(d.downclocked_share > 0.0);
        assert!(r.kv_transfer.is_some());
        assert!(r.completed > 0);
        let base = run_sharded(&cfg, 13, 1, 1).unwrap();
        assert_eq!(r.to_json(), base.to_json());
    }

    #[test]
    fn dvfs_demand_pressure_raises_clocks() {
        // The same fleet under crushing demand must serve closer to
        // nominal than the quiet fleet: the EWMA + backlog guard refuses
        // operating points whose throughput cannot cover demand.
        let mut quiet = small_dvfs_cfg();
        quiet.failure_acceleration = 0.0;
        quiet.workload.rate_per_instance_s = 0.5;
        let mut busy = quiet.clone();
        busy.workload.rate_per_instance_s = 20.0;
        let q = run_sharded(&quiet, 7, 2, 2).unwrap();
        let b = run_sharded(&busy, 7, 2, 2).unwrap();
        let (qd, bd) = (q.dvfs.unwrap(), b.dvfs.unwrap());
        assert!(
            bd.mean_clock > qd.mean_clock + 0.05,
            "busy {} vs quiet {}",
            bd.mean_clock,
            qd.mean_clock
        );
    }

    #[test]
    fn spares_absorb_failures_and_raise_availability() {
        let mut cfg = small_cfg();
        cfg.spares_per_cell = 0;
        let none = run_sharded(&cfg, 5, 2, 2).unwrap();
        cfg.spares_per_cell = 2;
        let some = run_sharded(&cfg, 5, 2, 2).unwrap();
        assert_eq!(none.spare_hits, 0);
        assert!(some.spare_hits > 0);
        assert!(
            some.availability > none.availability,
            "with spares {} vs without {}",
            some.availability,
            none.availability
        );
    }

    #[test]
    fn lite_fleet_spare_overhead_is_quarter_of_h100() {
        // Same spare-unit count per cell; Lite spare units are ¼-size
        // dies, so the fleet-fraction cost is 4x smaller — §3's cheap
        // hot spares.
        let h = FleetConfig::h100_demo();
        let l = FleetConfig::lite_demo();
        let oh = h.spares_per_cell as f64 * h.num_cells() as f64
            / (h.instances * h.gpus_per_instance) as f64;
        let ol = l.spares_per_cell as f64 * l.num_cells() as f64
            / (l.instances * l.gpus_per_instance) as f64;
        assert!((oh / ol - 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_failures_means_full_availability() {
        let mut cfg = small_cfg();
        cfg.failure_acceleration = 0.0;
        let r = run_sharded(&cfg, 3, 2, 2).unwrap();
        assert_eq!(r.failures, 0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.retried, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = small_cfg();
        c.instances = 0;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_cfg();
        c.tick_s = 0.0;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        let mut c = small_cfg();
        c.horizon_s = f64::NAN;
        assert!(run_sharded(&c, 1, 1, 1).is_err());
        // Workload validation is wired through.
        let mut c = small_cfg();
        c.workload.rate_per_instance_s = f64::NAN;
        let err = run_sharded(&c, 1, 1, 1).unwrap_err();
        assert!(matches!(err, FleetError::Workload(_)));
        let mut c = small_cfg();
        c.workload.tenants[0].pattern = TrafficPattern::Trace(vec![(9.0, 1.0), (1.0, 1.0)]);
        assert!(matches!(
            run_sharded(&c, 1, 1, 1).unwrap_err(),
            FleetError::Workload(_)
        ));
        // Control-plane validation is wired through too.
        let mut c = small_ctrl_cfg();
        c.ctrl.as_mut().unwrap().router = None;
        let err = run_sharded(&c, 1, 1, 1).unwrap_err();
        assert!(matches!(err, FleetError::Ctrl(_)));
    }
}
