#!/usr/bin/env bash
# CI gate for the litegpu workspace. The GitHub workflow
# (.github/workflows/ci.yml) invokes this same script — `lint` and
# `build-test` run as parallel jobs there — so the local gate and CI
# cannot drift.
#
# Usage: ci.sh [lint|build-test|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")"

lint() {
  echo "==> cargo fmt --check"
  cargo fmt --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> cargo doc --workspace --no-deps (deny warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

build_test() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo build --release --examples (workspace)"
  cargo build --workspace --release --examples

  echo "==> cargo test -q (workspace)"
  cargo test --workspace -q

  echo "==> cargo test --doc (workspace doc-tests)"
  cargo test --workspace --doc -q

  echo "==> perfbench: build the benchmark package and run its unit tests"
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

  echo "==> fleet determinism + scale smoke (sim_fleet)"
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu lite --instances 200 --hours 2 --quiet-json

  echo "==> fleet-scale smoke: 100k instances through the event-queue scheduler"
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu lite --instances 100000 --cell-size 64 --hours 2 --rate 0.0005 \
    --control-interval 300 --ctrl auto --workload multi --serving mono \
    --no-baseline --shards 0 --threads 4 --seed 42 --quiet-json

  echo "==> phase-split smoke: split-vs-mono headline + KV accounting (sim_fleet --serving split)"
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu both --instances 64 --cell-size 8 --hours 1 --rate 3 \
    --serving split --quiet-json

  echo "==> control-plane smoke: autoscale + gating + routing + admission + DVFS headline (sim_ctrl --dvfs)"
  cargo run --release -q -p litegpu-bench --bin sim_ctrl -- \
    --instances 100 --hours 4 --dvfs --quiet-json

  echo "==> balancer smoke: skewed fleet, balanced-vs-isolated SLO + energy/token headline (sim_ctrl --balancer --skew 2x2.5)"
  cargo run --release -q -p litegpu-bench --bin sim_ctrl -- \
    --instances 64 --cell-size 8 --hours 0.25 --accel 50000 \
    --balancer --skew 2x2.5 --quiet-json

  echo "==> chaos smoke: campaign sweep, H100-vs-Lite availability under correlated failures (sim_chaos --smoke --series)"
  cargo run --release -q -p litegpu-bench --bin sim_chaos -- \
    --smoke --series --quiet-json

  echo "==> telemetry smoke: deterministic series + Perfetto trace + engine profile (sim_fleet --series --trace --profile)"
  mkdir -p target/ci-telemetry
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu lite --instances 64 --cell-size 8 --hours 1 --accel 50000 \
    --ctrl auto --workload multi --serving split --chaos rack --no-baseline \
    --series target/ci-telemetry/series.jsonl --series-dt 60000000 \
    --trace target/ci-telemetry/trace.json --trace-every 16 \
    --profile --quiet-json
  for artifact in series.jsonl trace.json; do
    test -s "target/ci-telemetry/$artifact" || {
      echo "TELEMETRY SMOKE: target/ci-telemetry/$artifact missing or empty" >&2; exit 1; }
  done

  echo "==> TCO smoke: design-space sweep, Pareto frontier + H100-vs-Lite \$/Mtoken headline (sim_tco --smoke)"
  cargo run --release -q -p litegpu-bench --bin sim_tco -- \
    --smoke --quiet-json

  echo "==> determinism: byte-identical FleetReport at 1/2/8 threads, serving/control combos with and without chaos"
  ./scripts/check_determinism.sh

  echo "==> perf smoke: commit-stamped BENCH_fleet.json (base + dvfs + fleet100k) vs checked-in baseline, >20% regression gate"
  ./scripts/perf_smoke.sh
}

mode="${1:-all}"
case "$mode" in
  lint) lint ;;
  build-test) build_test ;;
  all)
    lint
    build_test
    ;;
  *)
    echo "usage: ci.sh [lint|build-test|all]" >&2
    exit 2
    ;;
esac

echo "CI gate ($mode) passed."
