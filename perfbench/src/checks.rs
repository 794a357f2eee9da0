//! Output checks behind `ok_share`: conservation identities every fleet
//! report must satisfy, the TCO report's pricing and frontier
//! invariants, and the FNV-1a content hash that pins each output's
//! bytes across passes at one seed.

use litegpu_fleet::FleetReport;
use litegpu_tco::{FrontierPoint, TcoReport};

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every violated identity of one fleet report (empty when it holds).
pub fn fleet_report(r: &FleetReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut eq = |what: &str, a: u64, b: u64| {
        if a != b {
            bad.push(format!("{what}: {a} != {b}"));
        }
    };
    let mut sum = [0u64; 6];
    for t in &r.per_tenant {
        eq(
            &format!("tenant {}: routed + rejected + shed = arrived", t.name),
            t.routed + t.rejected + t.shed,
            t.arrived,
        );
        eq(
            &format!("tenant {}: completed <= routed", t.name),
            t.completed.min(t.routed),
            t.completed,
        );
        for (s, v) in sum.iter_mut().zip([
            t.arrived,
            t.routed,
            t.completed,
            t.generated_tokens,
            t.shed,
            t.rejected + t.shed,
        ]) {
            *s += v;
        }
    }
    eq(
        "fleet routed + rejected = arrived",
        r.routed + r.rejected,
        r.arrived,
    );
    eq("tenant sum arrived", sum[0], r.arrived);
    eq("tenant sum routed", sum[1], r.routed);
    eq("tenant sum completed", sum[2], r.completed);
    eq("tenant sum generated_tokens", sum[3], r.generated_tokens);
    eq(
        "tenant sum shed = routing_shed + admission_shed",
        sum[4],
        r.routing_shed + r.admission_shed,
    );
    eq(
        "tenant sum rejected + shed = fleet rejected",
        sum[5],
        r.rejected,
    );
    let fb = &r.failure_breakdown;
    eq(
        "failure breakdown independent + rack + power = failures",
        fb.independent + fb.rack + fb.power,
        r.failures,
    );
    if let Some(kv) = &r.kv_transfer {
        eq(
            "kv bytes_queued = bytes_delivered + bytes_inflight_at_end",
            kv.bytes_queued,
            kv.bytes_delivered + kv.bytes_inflight_at_end,
        );
    }
    if let Some(b) = &r.balancer {
        let flow: u64 = b.flow.iter().map(|f| f.requests).sum();
        eq(
            "balancer spilled_out = spilled_in",
            b.spilled_out,
            b.spilled_in,
        );
        eq("balancer spilled_out = sum of flow", b.spilled_out, flow);
    }
    bad
}

/// Pricing invariants of one evaluated candidate.
pub fn tco_point(p: &FrontierPoint) -> Vec<String> {
    let mut bad = Vec::new();
    let b = &p.breakdown;
    let parts = b.silicon_usd + b.spares_usd + b.network_usd + b.provisioning_usd + b.energy_usd;
    if parts.to_bits() != p.total_usd.to_bits() {
        bad.push(format!(
            "{}: breakdown parts {parts} != total_usd {}",
            p.label, p.total_usd
        ));
    }
    if p.slo_tokens > p.generated_tokens {
        bad.push(format!(
            "{}: slo_tokens {} > generated_tokens {}",
            p.label, p.slo_tokens, p.generated_tokens
        ));
    }
    let expect = (p.slo_tokens > 0).then(|| p.total_usd / p.slo_tokens as f64 * 1e6);
    if expect.map(f64::to_bits) != p.usd_per_mtoken.map(f64::to_bits) {
        bad.push(format!(
            "{}: usd_per_mtoken {:?} != total / slo tokens {:?}",
            p.label, p.usd_per_mtoken, expect
        ));
    }
    bad
}

/// Indices of the priced points no other priced point dominates
/// (cheaper-or-equal and better-or-equal share, strictly better in
/// one), computed independently of `litegpu_tco::pareto`.
pub fn non_dominated(points: &[FrontierPoint]) -> Vec<usize> {
    let dominates =
        |a: &FrontierPoint, b: &FrontierPoint| match (a.usd_per_mtoken, b.usd_per_mtoken) {
            (Some(ca), Some(cb)) => {
                ca <= cb && a.slo_share >= b.slo_share && (ca < cb || a.slo_share > b.slo_share)
            }
            _ => false,
        };
    (0..points.len())
        .filter(|&i| points[i].usd_per_mtoken.is_some())
        .filter(|&i| !points.iter().any(|q| dominates(q, &points[i])))
        .collect()
}

/// Every violated invariant of a TCO report, with the candidate index it
/// blames (`None` for report-wide problems).
pub fn tco_report(r: &TcoReport) -> Vec<(Option<usize>, String)> {
    let mut bad: Vec<(Option<usize>, String)> = Vec::new();
    for (i, p) in r.points.iter().enumerate() {
        bad.extend(tco_point(p).into_iter().map(|m| (Some(i), m)));
    }
    let mut frontier: Vec<usize> = r.frontier.iter().map(|&i| i as usize).collect();
    let costs: Vec<Option<f64>> = frontier
        .iter()
        .map(|&i| r.points.get(i).and_then(|p| p.usd_per_mtoken))
        .collect();
    if costs.windows(2).any(|w| w[0] > w[1]) {
        bad.push((None, "frontier not cost-ascending".into()));
    }
    frontier.sort_unstable();
    let expect = non_dominated(&r.points);
    for i in 0..r.points.len() {
        let listed = frontier.binary_search(&i).is_ok();
        let should = expect.binary_search(&i).is_ok();
        if listed != should || r.points[i].on_frontier != should {
            bad.push((
                Some(i),
                format!(
                    "{}: frontier membership listed={listed} flagged={} non-dominated={should}",
                    r.points[i].label, r.points[i].on_frontier
                ),
            ));
        }
    }
    if frontier.iter().any(|&i| i >= r.points.len()) {
        bad.push((None, "frontier index out of range".into()));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_fleet::ctrl::{BalancerConfig, CtrlConfig, Policy};
    use litegpu_fleet::{FleetConfig, ServingMode, WorkloadSpec};
    use litegpu_tco::{evaluate_sweep, smoke_grid, SweepBase, TcoModel};

    fn small_report() -> FleetReport {
        let mut cfg = FleetConfig::lite_demo();
        cfg.instances = 32;
        cfg.cell_size = 8;
        cfg.horizon_s = 1800.0;
        cfg.failure_acceleration = 20_000.0;
        cfg.workload = WorkloadSpec::multi_tenant_demo(3.0);
        cfg.cell_rate_multipliers = vec![2.0, 2.0, 0.0, 0.0];
        cfg.serving = ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance);
        cfg.ctrl = Some(
            CtrlConfig::demo(Policy::GateToEfficiency).with_balancer(BalancerConfig::default()),
        );
        litegpu_fleet::run_sharded(&cfg, 7, cfg.num_cells(), 1).expect("small fleet runs")
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn real_report_passes_and_doctored_reports_fail() {
        let r = small_report();
        assert!(r.balancer.as_ref().is_some_and(|b| b.spilled_out > 0));
        assert!(r.per_tenant.iter().any(|t| t.shed > 0) || r.kv_transfer.is_some());
        assert_eq!(fleet_report(&r), Vec::<String>::new());

        let mut shed = r.clone();
        shed.per_tenant[0].shed += 1;
        assert!(!fleet_report(&shed).is_empty(), "tenant shed off by one");

        let mut done = r.clone();
        done.per_tenant[1].completed = done.per_tenant[1].routed + 1;
        assert!(!fleet_report(&done).is_empty(), "completed beyond routed");

        let mut kv = r.clone();
        kv.kv_transfer.as_mut().expect("split run").bytes_delivered += 1;
        assert!(!fleet_report(&kv).is_empty(), "kv bytes not conserved");

        let mut bal = r.clone();
        bal.balancer.as_mut().expect("balanced run").spilled_in += 1;
        assert!(!fleet_report(&bal).is_empty(), "spill not conserved");
    }

    #[test]
    fn tco_checks_accept_real_sweep_and_reject_doctored() {
        let base = SweepBase {
            equiv_instances: 4,
            rate_per_equiv: 2.0,
            hours: 0.1,
            accel: 2_000.0,
        };
        let model = TcoModel::paper_default();
        let points = evaluate_sweep(&smoke_grid(), &base, &model, 5, 1).expect("smoke sweep");
        let r = TcoReport::new(5, base, model, points);
        assert_eq!(tco_report(&r), Vec::new());

        let mut parts = r.clone();
        parts.points[0].breakdown.energy_usd += 1.0;
        assert!(tco_report(&parts).iter().any(|(i, _)| *i == Some(0)));

        let mut front = r.clone();
        let off = (0..front.points.len())
            .find(|&i| !front.points[i].on_frontier)
            .expect("some point is dominated");
        front.frontier.push(off as u32);
        front.points[off].on_frontier = true;
        assert!(tco_report(&front).iter().any(|(i, _)| *i == Some(off)));
    }
}
