//! Shared plumbing for the experiment binaries: artifact output under
//! `target/experiments/`.

use std::io::Write;
use std::path::PathBuf;

/// Directory where experiment binaries drop machine-readable artifacts.
pub fn experiments_dir() -> PathBuf {
    let mut p =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()));
    p.push("experiments");
    p
}

/// Prints an experiment to stdout and writes companion artifacts
/// (`<id>.txt` plus any `(name, contents)` extras such as JSON or SVG).
pub fn emit(exp: &litegpu::experiments::Experiment, extras: &[(String, String)]) {
    println!("=== {} ===\n{}", exp.title, exp.output);
    let dir = experiments_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return; // Artifact output is best-effort.
    }
    let write = |name: &str, contents: &str| {
        if let Ok(mut f) = std::fs::File::create(dir.join(name)) {
            let _ = f.write_all(contents.as_bytes());
        }
    };
    write(&format!("{}.txt", exp.id), &exp.output);
    for (name, contents) in extras {
        write(name, contents);
    }
}

/// Serializes any serde value to pretty JSON (best-effort).
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Writes a user-requested artifact (`--series`, `--trace`,
/// `--perf-json`, ...), exiting non-zero with a clean diagnostic when
/// the path is unwritable — a requested artifact that silently fails to
/// appear breaks the CI contract downstream.
pub fn write_artifact(what: &str, path: &str, bytes: &str) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("# {what}: wrote {path}"),
        Err(e) => {
            eprintln!("{what} {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The silicon-equal H100-vs-Lite fleet pairs the experiment binaries
/// compare, built in one place instead of copy-pasted per binary.
///
/// Two constructions exist:
/// - the *demo* pairs ([`demo_pair`], [`ctrl_demo_pair`]): the fleet
///   engine's tensor-parallel Llama3-70B demo fleets with the
///   §3-appropriate power policy per GPU type;
/// - the *single-GPU* pair ([`pair_designs`], [`pair_configs`]): N
///   single-GPU Llama3-8B H100 instances in 8-wide cells with one spare
///   vs 4N Lite instances in 32-wide cells with four spares at a quarter
///   of the per-instance rate — the same silicon, demand and rack shape,
///   expressed as `litegpu_tco` design points so the chaos binary and
///   the TCO sweep study literally the same candidates.
///
/// [`demo_pair`]: fleet_pair::demo_pair
/// [`ctrl_demo_pair`]: fleet_pair::ctrl_demo_pair
/// [`pair_designs`]: fleet_pair::pair_designs
/// [`pair_configs`]: fleet_pair::pair_configs
pub mod fleet_pair {
    use litegpu_cluster::power_mgmt::Policy;
    use litegpu_fleet::FleetConfig;
    pub use litegpu_tco::{DesignPoint, SweepBase};

    /// The demo fleets with their §3 auto policies: H100 parks at the
    /// DVFS idle floor, Lite power-gates per unit.
    pub fn demo_pair() -> [(&'static str, FleetConfig, Policy); 2] {
        [
            ("h100", FleetConfig::h100_demo(), Policy::DvfsAll),
            ("lite", FleetConfig::lite_demo(), Policy::GateToEfficiency),
        ]
    }

    /// The controlled demo fleets (autoscaler + router + power policy
    /// already attached).
    pub fn ctrl_demo_pair() -> [(&'static str, FleetConfig); 2] {
        [
            ("h100", FleetConfig::h100_ctrl_demo()),
            ("lite", FleetConfig::lite_ctrl_demo()),
        ]
    }

    /// The canonical silicon-equal pair as TCO design points: die
    /// divisor 1 vs 4, 8-equivalent cells, one spare equivalent,
    /// monolithic serving, no DVFS.
    pub fn pair_designs() -> [(&'static str, DesignPoint); 2] {
        let base = DesignPoint {
            die_divisor: 1,
            cell_units: 8,
            spare_units: 1,
            split: false,
            dvfs: false,
        };
        [
            ("h100", base),
            (
                "lite",
                DesignPoint {
                    die_divisor: 4,
                    ..base
                },
            ),
        ]
    }

    /// The canonical pair as runnable fleet configurations over a sweep
    /// base. `controlled` keeps the divisor-appropriate control plane;
    /// the chaos binary strips it to study the fixed fleet.
    pub fn pair_configs(base: &SweepBase, controlled: bool) -> [(&'static str, FleetConfig); 2] {
        pair_designs().map(|(name, design)| {
            let mut cfg = design
                .fleet_config(base)
                .expect("the canonical pair is a valid design");
            if !controlled {
                cfg.ctrl = None;
            }
            (name, cfg)
        })
    }

    /// Resolves a `--threads` argument: `0` means every available core.
    pub fn threads_or_auto(requested: u32) -> u32 {
        if requested > 0 {
            requested
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1)
        }
    }

    /// Resolves a `--shards` argument: `0` means one shard per repair
    /// cell (the engine's natural partition).
    pub fn shards_or_cells(requested: u32, cfg: &FleetConfig) -> u32 {
        if requested > 0 {
            requested
        } else {
            cfg.num_cells()
        }
    }
}

/// Minimal flag-parsing helpers shared by the experiment binaries
/// (`sim_fleet`, `sim_ctrl`, ...). Both exit with status 2 on bad input,
/// which is the binaries' established CLI contract.
pub mod cli {
    /// Returns the value following the flag at `argv[*i]`, advancing `i`
    /// past it; exits when the flag is the last token.
    pub fn value(argv: &[String], i: &mut usize) -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    }

    /// Parses a flag's raw value, exiting with a diagnostic on failure.
    pub fn parsed<T: std::str::FromStr>(flag: &str, raw: String) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {flag}: {raw}");
            std::process::exit(2);
        })
    }

    /// The one shared parse path for `--series-dt`: a positive integer
    /// number of **simulated microseconds** per series sample window
    /// (e.g. `60000000` = 60 s windows). Every binary that exposes the
    /// flag routes through here so the unit can never drift between
    /// bins, docs and the engine's `TelemetryConfig::series_dt_us`.
    pub fn series_dt_us(flag: &str, raw: String) -> u64 {
        let us: u64 = raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {flag}: {raw} (expected integer µs of simulated time)");
            std::process::exit(2);
        });
        if us == 0 {
            eprintln!("{flag} must be >= 1 µs of simulated time");
            std::process::exit(2);
        }
        us
    }

    /// Stderr-only warnings for flags a binary accepts but the chosen
    /// mode ignores (e.g. phase flags on a monolithic run). Never
    /// changes behavior or artifact bytes — stdout and exit status are
    /// untouched.
    pub fn warn_ignored(argv: &[String], context: &str, flags: &[&str]) {
        for flag in flags {
            if argv.iter().any(|a| a == flag) {
                eprintln!("# warning: {flag} is ignored {context}");
            }
        }
    }

    /// The CLI surface the fleet-scale binaries (`sim_fleet`,
    /// `sim_ctrl`, `sim_chaos`, `sim_tco`) used to re-implement
    /// flag-by-flag: seed, parallelism shape, and the series/perf
    /// artifact paths. Each binary enables exactly the subset it wires
    /// up, so a flag outside the subset still exits 2 as an unknown
    /// argument instead of being silently accepted.
    pub struct CommonArgs {
        enabled: &'static [&'static str],
        /// Simulation seed (`--seed`, default 42).
        pub seed: u64,
        /// Shard count (`--shards`, 0 = one per repair cell).
        pub shards: u32,
        /// Worker threads (`--threads`, 0 = every available core).
        pub threads: u32,
        /// Series artifact path (`--series`).
        pub series: Option<String>,
        /// Series sample window, simulated µs (`--series-dt`).
        pub series_dt_us: u64,
        /// Perf artifact path (`--perf-json`).
        pub perf_json: Option<String>,
    }

    impl CommonArgs {
        /// Every shared flag, for binaries that wire the full surface.
        pub const ALL: &'static [&'static str] = &[
            "--seed",
            "--shards",
            "--threads",
            "--series",
            "--series-dt",
            "--perf-json",
        ];

        /// Defaults matching every binary's historical values, with the
        /// given flags enabled.
        pub fn new(enabled: &'static [&'static str]) -> Self {
            CommonArgs {
                enabled,
                seed: 42,
                shards: 0,
                threads: 0,
                series: None,
                series_dt_us: 60_000_000,
                perf_json: None,
            }
        }

        /// Attempts to consume `argv[*i]` (plus its value) as one of the
        /// enabled shared flags; returns whether it did.
        pub fn try_parse(&mut self, argv: &[String], i: &mut usize) -> bool {
            let flag = argv[*i].clone();
            if !self.enabled.contains(&flag.as_str()) {
                return false;
            }
            match flag.as_str() {
                "--seed" => self.seed = parsed(&flag, value(argv, i)),
                "--shards" => self.shards = parsed(&flag, value(argv, i)),
                "--threads" => self.threads = parsed(&flag, value(argv, i)),
                "--series" => self.series = Some(value(argv, i)),
                "--series-dt" => self.series_dt_us = series_dt_us(&flag, value(argv, i)),
                "--perf-json" => self.perf_json = Some(value(argv, i)),
                _ => unreachable!("enabled flags are a subset of the handled set"),
            }
            true
        }
    }

    use litegpu_fleet::ctrl::{BalancerConfig, CtrlConfig};
    use litegpu_fleet::FleetConfig;

    /// The shared fleet-scope balancer flag set: `--balancer` turns the
    /// two-level control plane on, the knob flags override
    /// [`BalancerConfig`] defaults, and `--skew HxM` makes the first `H`
    /// cells hot at `M`x their arrival rate with the cold remainder
    /// scaled down so the fleet-total demand is unchanged (e.g.
    /// `--skew 2x2.5` on 8 cells gives the canonical 2-hot/6-cold mix
    /// with the cold cells at 0.5x).
    #[derive(Default)]
    pub struct BalancerArgs {
        /// `--balancer` was passed.
        pub enabled: bool,
        /// `--balancer-interval S` (fleet-tick seconds).
        pub interval_s: Option<f64>,
        /// `--spill-permille N` (bounded redirect fraction).
        pub spill_permille: Option<u16>,
        /// `--hot-factor F` (hot threshold vs fleet-mean queue).
        pub hot_factor: Option<f64>,
        /// `--quota-headroom F` (admission quota multiple).
        pub quota_headroom: Option<f64>,
        /// `--kv-slack-us N` (phase-split spill eligibility).
        pub kv_slack_us: Option<u64>,
        /// `--skew HxM` as `(hot_cells, hot_multiplier)`.
        pub skew: Option<(u32, f64)>,
    }

    impl BalancerArgs {
        /// Attempts to consume `argv[*i]` as one of the balancer flags;
        /// returns whether it did.
        pub fn try_parse(&mut self, argv: &[String], i: &mut usize) -> bool {
            let flag = argv[*i].clone();
            match flag.as_str() {
                "--balancer" => self.enabled = true,
                "--balancer-interval" => self.interval_s = Some(parsed(&flag, value(argv, i))),
                "--spill-permille" => self.spill_permille = Some(parsed(&flag, value(argv, i))),
                "--hot-factor" => self.hot_factor = Some(parsed(&flag, value(argv, i))),
                "--quota-headroom" => self.quota_headroom = Some(parsed(&flag, value(argv, i))),
                "--kv-slack-us" => self.kv_slack_us = Some(parsed(&flag, value(argv, i))),
                "--skew" => {
                    let raw = value(argv, i);
                    let parts = raw.split_once('x').unwrap_or_else(|| {
                        eprintln!("invalid value for --skew: {raw} (expected HxM, e.g. 2x2.5)");
                        std::process::exit(2);
                    });
                    self.skew = Some((parsed("--skew", parts.0.into()), {
                        let m: f64 = parsed("--skew", parts.1.into());
                        if !(m.is_finite() && m >= 1.0) {
                            eprintln!("--skew hot multiplier must be >= 1");
                            std::process::exit(2);
                        }
                        m
                    }));
                }
                _ => return false,
            }
            true
        }

        /// The balancer configuration the knob flags resolve to.
        pub fn config(&self) -> BalancerConfig {
            let mut b = BalancerConfig::default();
            if let Some(v) = self.interval_s {
                b.interval_s = v;
            }
            if let Some(v) = self.spill_permille {
                b.spill_permille = v;
            }
            if let Some(v) = self.hot_factor {
                b.hot_factor = v;
            }
            if let Some(v) = self.quota_headroom {
                b.quota_headroom = v;
            }
            if let Some(v) = self.kv_slack_us {
                b.kv_slack_us = v;
            }
            b
        }

        /// Applies the skew multipliers and (when `--balancer` was
        /// passed) attaches the fleet-scope balancer on top of whatever
        /// cell-scope control the config already carries. Call after the
        /// instance count and cell size are final — the multiplier
        /// vector is sized to `num_cells()`. Exits 2 when the skew
        /// cannot keep fleet-total demand unchanged on that many cells
        /// (see [`check_skew`]).
        pub fn apply(&self, cfg: &mut FleetConfig) {
            if let Some((hot, mult)) = self.skew {
                let cells = cfg.num_cells();
                if let Err(e) = check_skew(cells, hot, mult) {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                cfg.cell_rate_multipliers = skew_multipliers(cells, hot, mult);
            }
            if self.enabled {
                cfg.ctrl = Some(match cfg.ctrl.take() {
                    Some(c) => c.with_balancer(self.config()),
                    None => CtrlConfig::builder().balancer(self.config()).build(),
                });
            }
        }

        /// Warns (stderr only) when balancer knobs were passed without
        /// `--balancer` — they would otherwise be silently ignored.
        pub fn warn_if_ignored(&self) {
            if self.enabled {
                return;
            }
            for (flag, passed) in [
                ("--balancer-interval", self.interval_s.is_some()),
                ("--spill-permille", self.spill_permille.is_some()),
                ("--hot-factor", self.hot_factor.is_some()),
                ("--quota-headroom", self.quota_headroom.is_some()),
                ("--kv-slack-us", self.kv_slack_us.is_some()),
            ] {
                if passed {
                    eprintln!("# warning: {flag} is ignored without --balancer");
                }
            }
        }
    }

    /// Checks that `--skew HxM` is possible on `num_cells` cells: the hot
    /// cells must exist (`H <= cells`) and their demand must fit inside
    /// the fleet total (`H·M <= cells`), or the cold remainder would
    /// need a negative rate and the fleet would run above its demand.
    pub fn check_skew(num_cells: u32, hot: u32, mult: f64) -> Result<(), String> {
        if hot > num_cells {
            return Err(format!(
                "--skew {hot}x{mult}: {hot} hot cells, but the fleet has only {num_cells} cells"
            ));
        }
        let hot_demand = hot as f64 * mult;
        if hot_demand > num_cells as f64 {
            return Err(format!(
                "--skew {hot}x{mult}: the hot cells alone carry {hot_demand} cells' worth of \
                 demand, more than the fleet's {num_cells} cells; fleet-total demand could \
                 not stay unchanged"
            ));
        }
        Ok(())
    }

    /// The hot/cold multiplier vector for `--skew HxM`: the first `hot`
    /// cells at `mult`x, the remainder scaled so the fleet-total arrival
    /// rate matches the unskewed fleet exactly (clamped at 0 when the
    /// hot cells already exceed it).
    pub fn skew_multipliers(num_cells: u32, hot: u32, mult: f64) -> Vec<f64> {
        let n = num_cells as usize;
        let hot = (hot as usize).min(n);
        let cold = n - hot;
        let cold_mult = if cold == 0 {
            0.0
        } else {
            ((n as f64 - hot as f64 * mult) / cold as f64).max(0.0)
        };
        let mut m = vec![mult; hot];
        m.resize(n, cold_mult);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_ends_with_experiments() {
        assert!(experiments_dir().ends_with("experiments"));
    }

    #[test]
    fn json_serializes() {
        let s = to_json(&vec![1, 2, 3]);
        assert!(s.contains('1'));
    }

    #[test]
    fn pair_configs_are_silicon_equal() {
        let base = fleet_pair::SweepBase {
            equiv_instances: 24,
            rate_per_equiv: 2.0,
            hours: 0.5,
            accel: 10_000.0,
        };
        let [(hn, h), (ln, l)] = fleet_pair::pair_configs(&base, false);
        assert_eq!((hn, ln), ("h100", "lite"));
        assert_eq!((h.gpu.name.as_str(), l.gpu.name.as_str()), ("H100", "Lite"));
        // 4x the instances at 1/4 the capability, same cells and spare
        // silicon, same total demand, no control plane.
        assert_eq!((h.instances, l.instances), (24, 96));
        assert_eq!((h.cell_size, l.cell_size), (8, 32));
        assert_eq!((h.spares_per_cell, l.spares_per_cell), (1, 4));
        assert_eq!(h.num_cells(), l.num_cells());
        assert_eq!(h.gpus_per_instance, 1);
        assert!(h.ctrl.is_none() && l.ctrl.is_none());
        assert!(
            (h.workload.rate_per_instance_s - 4.0 * l.workload.rate_per_instance_s).abs() < 1e-12
        );
        // The controlled variant keeps the divisor-appropriate policies.
        let [(_, hc), (_, lc)] = fleet_pair::pair_configs(&base, true);
        use litegpu_cluster::power_mgmt::Policy;
        assert_eq!(hc.ctrl.unwrap().power.unwrap().policy, Policy::DvfsAll);
        assert_eq!(
            lc.ctrl.unwrap().power.unwrap().policy,
            Policy::GateToEfficiency
        );
    }

    #[test]
    fn skew_multipliers_conserve_fleet_demand() {
        let m = cli::skew_multipliers(8, 2, 2.5);
        assert_eq!(m.len(), 8);
        assert_eq!(&m[..2], &[2.5, 2.5]);
        assert!(m[2..].iter().all(|&c| (c - 0.5).abs() < 1e-12));
        assert!((m.iter().sum::<f64>() - 8.0).abs() < 1e-12);
        // Overcommitted hot cells clamp the cold remainder at zero.
        let m = cli::skew_multipliers(4, 3, 2.0);
        assert_eq!(m, vec![2.0, 2.0, 2.0, 0.0]);
        // All-hot leaves no cold remainder to scale.
        assert_eq!(cli::skew_multipliers(2, 5, 3.0), vec![3.0, 3.0]);
    }

    #[test]
    fn check_skew_rejects_impossible_skews() {
        // The canonical mix, all-cold-at-zero and all-hot-at-1x are fine.
        assert_eq!(cli::check_skew(8, 2, 2.5), Ok(()));
        assert_eq!(cli::check_skew(8, 4, 2.0), Ok(()));
        assert_eq!(cli::check_skew(8, 8, 1.0), Ok(()));
        assert_eq!(cli::check_skew(1563, 16, 2.5), Ok(()));
        // More hot cells than cells.
        let e = cli::check_skew(8, 9, 2.5).unwrap_err();
        assert!(
            e.contains("9 hot cells") && e.contains("only 8 cells"),
            "{e}"
        );
        // Hot demand above the fleet total: 3 x 3 = 9 > 8.
        let e = cli::check_skew(8, 3, 3.0).unwrap_err();
        assert!(e.contains("9 cells' worth") && e.contains("8 cells"), "{e}");
        // All hot above 1x cannot conserve demand either.
        assert!(cli::check_skew(2, 2, 1.5).is_err());
    }

    #[test]
    fn common_args_parse_enabled_subset_only() {
        let argv: Vec<String> = ["--seed", "7", "--threads", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut c = cli::CommonArgs::new(&["--seed"]);
        let mut i = 0;
        assert!(c.try_parse(&argv, &mut i));
        assert_eq!((c.seed, i), (7, 1));
        i = 2;
        assert!(!c.try_parse(&argv, &mut i), "--threads not enabled");
        assert_eq!(c.threads, 0);
        let mut all = cli::CommonArgs::new(cli::CommonArgs::ALL);
        i = 2;
        assert!(all.try_parse(&argv, &mut i));
        assert_eq!(all.threads, 3);
    }

    #[test]
    fn balancer_args_resolve_config_and_attach() {
        let argv: Vec<String> = ["--balancer", "--spill-permille", "450", "--skew", "2x2.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut b = cli::BalancerArgs::default();
        let mut i = 0;
        while i < argv.len() {
            assert!(b.try_parse(&argv, &mut i), "{}", argv[i]);
            i += 1;
        }
        assert!(b.enabled);
        assert_eq!(b.config().spill_permille, 450);
        assert_eq!(b.skew, Some((2, 2.5)));
        let mut cfg = litegpu_fleet::FleetConfig::lite_demo();
        cfg.instances = 64;
        cfg.cell_size = 8;
        b.apply(&mut cfg);
        assert_eq!(cfg.cell_rate_multipliers.len(), 8);
        let ctrl = cfg.ctrl.expect("balancer attaches a control plane");
        assert_eq!(ctrl.balancer.expect("balancer set").spill_permille, 450);
        assert_eq!(ctrl.label(), "balancer");
    }

    #[test]
    fn parallelism_defaults_resolve() {
        assert_eq!(fleet_pair::threads_or_auto(3), 3);
        assert!(fleet_pair::threads_or_auto(0) >= 1);
        let cfg = litegpu_fleet::FleetConfig::h100_demo();
        assert_eq!(fleet_pair::shards_or_cells(5, &cfg), 5);
        assert_eq!(fleet_pair::shards_or_cells(0, &cfg), cfg.num_cells());
    }
}
