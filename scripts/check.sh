#!/bin/sh
# check.sh — the repository's full static + dynamic gate:
#
#   1. go vet      standard toolchain checks
#   2. etlint      repo-specific analyzers (floatcmp, toldef, nopanic,
#                  ctxfirst, maporder, lockguard, stickyerr); the same
#                  pass writes the nopanic exemption audit, which must
#                  match the reviewed allowlist
#                  (scripts/nopanic_exemptions.txt) — worker panics must
#                  convert to coordinator errors, not earn new markers
#   3. go test     full suite under the race detector
#   4. milp race   the parallel branch & bound, twice, under -race
#   5. start path  the suites that lock the simplex start path, under
#                  -race: SolveFrom must match a cold Solve, slack starts
#                  with and without a dual feasible slack basis, the
#                  dual-degenerate guard's hand-off to phase 1 and
#                  Bland pricing in phase 1 must match the exact
#                  reference, every optimal solve must leave a tableau
#                  snapshot, and the warm-started branch & bound must
#                  certify the brute-force optimum at workers 1 and 4
#                  and ignore the deprecated ReuseBasis field
#   6. obs cover   internal/obs must hold >= 70% statement coverage —
#                  the observability layer is what every other number in
#                  a trace or metrics file is trusted against
#   7. bench lock  every docs/benchmarks/BENCH_*.json must strict-parse
#                  against the etransform-bench/v1 schema (etbench
#                  -validate) — the perf trajectory is part of the
#                  reviewed surface, not a scratch directory
#   8. output lock the golden-plan and metamorphic suites, explicitly:
#                  byte-stable plan JSON + certified-objective invariance;
#                  plus the model-equivalence suites: the planner's
#                  optimum must equal a brute-force enumeration
#                  (TestPlannerMatchesBruteForce), the paper's §IV-B DR
#                  encoding, kept as a test reference, must reach the
#                  same optimum (TestPairVsPaperFormulationEquivalent),
#                  and group aggregation must be exact and shrink the
#                  model (TestAggregationExact)
#   9. fault smoke each injectable fault class forced through -faults
#                  end to end, without and with -dr, at -gap 1e-4 on a
#                  state that branches in that mode: every row must fire
#                  its fault (fault.fired in -metrics), exit 3 with a
#                  certified degraded plan, and end at its pinned stage
#                  (pivotx2 and panicxall at lp-rounding/2, pivotxall and
#                  corruptxall at greedy/3, stallxall and deadlinexall at
#                  exact-milp/1); every -dr plan must give each group a
#                  secondary distinct from its primary; a corrupted
#                  standalone solve must fail cleanly with exit 1, and a
#                  standalone LP whose slack basis is neither primal nor
#                  dual feasible must reach its optimum through phase 1
#  10. robust smoke a fixed-seed Monte Carlo robustness batch, run twice
#                  at different -workers values: the two
#                  etransform-robust/v1 reports must be byte-identical
#                  (the replay contract) and strict-parse via etbench
#                  -validate
#  11. cut validity the 16-seed subset of the cut-validity property
#                  suite (no separated cut may eliminate an enumerated
#                  integer-feasible point) plus a short fuzz pass over
#                  both separators
#  12. worker determinism smoke: the default planner solve at -workers
#                  1 and 4, without and with -dr, must produce the
#                  identical plan cost block (root cuts run in the
#                  sequential root phase, so worker count must not leak
#                  into the answer); at -gap 1e-4 the -dr solve must
#                  separate cuts and branch, or the stage checks nothing,
#                  its warm starts must all be hits (no warm misses), and
#                  it must take no phase-1 pivot: every LP of the solve,
#                  the root included, starts dual
#  13. etserve smoke: boot the planning daemon on a random port, submit
#                  the smoke state over HTTP, poll to done, fetch the
#                  plan and compare it to the etransform CLI's plan for
#                  the same state — byte-equal after dropping the two
#                  wall-clock fields — then resubmit the same state and
#                  require a cache hit (serve.cache_hits counter)
#  14. perfbench   vet and test the benchmark module, which imports
#                  program identifiers no other stage builds against,
#                  then smoke-run each workload for one second three
#                  times: untraced twice (the second run must repeat the
#                  first's exact counts) and traced once (its counts must
#                  equal the untraced pass's, and on plan-dr it runs the
#                  serve probe); the last line of every run must report
#                  correct with no failed ops
#
# Run from anywhere; it operates on the repo root. Exits non-zero on the
# first failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> etlint ./... (lint + nopanic exemption audit, single pass)"
go run ./cmd/etlint -exemptions-out /tmp/nopanic_exemptions.$$ ./... || {
    rm -f /tmp/nopanic_exemptions.$$; exit 1; }
if ! diff -u scripts/nopanic_exemptions.txt /tmp/nopanic_exemptions.$$; then
    rm -f /tmp/nopanic_exemptions.$$
    echo "nopanic exemption set changed: review the new invariant-violation" >&2
    echo "helpers and update scripts/nopanic_exemptions.txt deliberately." >&2
    exit 1
fi
rm -f /tmp/nopanic_exemptions.$$

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -race -count=2 ./internal/milp/..."
go test -race -count=2 ./internal/milp/...

echo "==> start-path suites (-race)"
go test -race -run 'Warm|GapZero|ReuseBasis|ColdSolve|DualDegenerate|ExactReference|TableauView|Phase1' \
    ./internal/simplex ./internal/milp

echo "==> internal/obs coverage floor (70%)"
cover=$(go test -cover ./internal/obs | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {sub(/%/,"",$i); print $i}}')
if [ -z "$cover" ]; then
    echo "could not parse internal/obs coverage" >&2
    exit 1
fi
if ! awk -v c="$cover" 'BEGIN { exit !(c >= 70.0) }'; then
    echo "internal/obs coverage ${cover}% is below the 70% floor" >&2
    exit 1
fi
echo "    internal/obs coverage: ${cover}%"

echo "==> bench report schema validation (docs/benchmarks)"
go run ./cmd/etbench -validate docs/benchmarks

echo "==> golden plan + metamorphic + model-equivalence output locks"
go test ./cmd/etransform -run TestGoldenPlans
go test ./internal/core -run 'TestMetamorphic(CostScaling|IndexPermutation|DominatedDC)'
go test ./internal/core -run 'TestPlannerMatchesBruteForce|TestPairVsPaperFormulationEquivalent|TestAggregationExact'

echo "==> fault-injection smoke matrix"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
go build -o "$SMOKE_DIR/etransform" ./cmd/etransform
go build -o "$SMOKE_DIR/lpsolve" ./cmd/lpsolve
go run ./cmd/etdatagen -dataset enterprise1 -scale 0.05 -o "$SMOKE_DIR/asis.json"
go run ./cmd/etdatagen -dataset enterprise1 -scale 0.2 -o "$SMOKE_DIR/asis_x02.json"

# One -faults spec reaches every stage of the resilient pipeline. Each
# row forces a fault class against the planner, without and with DR, at
# -gap 1e-4 on a state whose search branches in that mode (the x0.2 state
# without DR, the x0.05 state with it; the x0.05 non-DR solve closes at
# the root at any gap, and there the panic and deadline sites are never
# hit). Every row must fire its fault, exit 3 with a degraded plan, and
# end at the stage pinned after the colon; a DR plan must give every
# group a distinct secondary.
for dr in "" -dr; do
    fault_state="$SMOKE_DIR/asis_x02.json"
    if [ -n "$dr" ]; then
        fault_state="$SMOKE_DIR/asis.json"
    fi
    for row in pivotx2:lp-rounding/2 pivotxall:greedy/3 corruptxall:greedy/3 \
        stallxall:exact-milp/1 panicxall:lp-rounding/2 deadlinexall:exact-milp/1; do
        spec=${row%%:*}
        want=${row#*:}
        rc=0
        rm -f "$SMOKE_DIR/fault_plan.json" "$SMOKE_DIR/fault_metrics.json"
        "$SMOKE_DIR/etransform" -state "$fault_state" -report=false $dr -gap 1e-4 \
            -faults "$spec" -timelimit 60s -plan "$SMOKE_DIR/fault_plan.json" \
            -metrics "$SMOKE_DIR/fault_metrics.json" > "$SMOKE_DIR/out.txt" 2>&1 || rc=$?
        got=$(jq -r '.stats.degradation | "\(.stage)/\(.stage_index)"' \
            "$SMOKE_DIR/fault_plan.json" 2>/dev/null || echo none)
        fired=$(jq '.counters["fault.fired"] // 0' "$SMOKE_DIR/fault_metrics.json" 2>/dev/null || echo 0)
        if [ "$rc" -ne 3 ] || [ "$got" != "$want" ] || [ "$fired" -lt 1 ]; then
            echo "etransform${dr:+ $dr} -faults $spec: exit $rc at stage $got, fault.fired=$fired; want exit 3 at stage $want with the fault fired" >&2
            cat "$SMOKE_DIR/out.txt" >&2
            exit 1
        fi
        echo "    etransform${dr:+ $dr} -faults $spec: exit 3 at $got, fault.fired=$fired (ok)"
        if [ -n "$dr" ] && ! jq -e '(.assignments|length) as $n | [.assignments[] | select((.secondary_dc // "") != "" and .secondary_dc != .primary_dc)] | length == $n' \
            "$SMOKE_DIR/fault_plan.json" > /dev/null; then
            echo "etransform -dr -faults $spec: some assignment lacks a secondary distinct from its primary" >&2
            exit 1
        fi
    done
done

# The standalone solver has no fallback chain: a persistently corrupted
# solve must fail cleanly (exit 1), never report a bogus optimum.
cat > "$SMOKE_DIR/m.lp" <<'EOF'
Minimize
 obj: -1 x - 2 y
Subject To
 c: x + y <= 4
Bounds
 0 <= x <= 3
 0 <= y <= 3
End
EOF
rc=0
"$SMOKE_DIR/lpsolve" -faults corruptxall "$SMOKE_DIR/m.lp" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "lpsolve -faults corruptxall: exit $rc, want 1" >&2
    exit 1
fi
rc=0
"$SMOKE_DIR/lpsolve" "$SMOKE_DIR/m.lp" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "lpsolve (clean): exit $rc, want 0" >&2
    exit 1
fi
# No planner LP runs phase 1 (stage 12 asserts it), so this LP carries it
# end to end: x + y >= 2 puts its slack outside its bounds, and the free
# z and w with nonzero costs have no bound to rest at, so the slack
# basis is neither primal nor dual feasible; milp presolve cannot bound
# a free column. The optimum is x = 2, z - w = 1: objective 1.
cat > "$SMOKE_DIR/phase1.lp" <<'EOF'
Minimize
 obj: x + 2 y - z + w
Subject To
 c1: x + y >= 2
 c2: z - w <= 1
Bounds
 0 <= x <= 10
 0 <= y <= 10
 z free
 w free
End
EOF
rc=0
"$SMOKE_DIR/lpsolve" -metrics "$SMOKE_DIR/phase1_metrics.json" "$SMOKE_DIR/phase1.lp" \
    > "$SMOKE_DIR/phase1_out.txt" 2>&1 || rc=$?
p1=$(jq '.counters["simplex.phase1_pivots"] // 0' "$SMOKE_DIR/phase1_metrics.json" 2>/dev/null || echo 0)
if [ "$rc" -ne 0 ] || ! grep -qx 'objective: 1' "$SMOKE_DIR/phase1_out.txt" || [ "$p1" -lt 1 ]; then
    echo "lpsolve phase-1 LP: exit $rc, simplex.phase1_pivots=$p1; want exit 0, objective: 1 and phase-1 pivots" >&2
    cat "$SMOKE_DIR/phase1_out.txt" >&2
    exit 1
fi
echo "    lpsolve phase-1 LP: objective 1, simplex.phase1_pivots=$p1 (ok)"

echo "==> robustness determinism smoke"
# One fixed-seed batch at two worker counts: the replay contract says
# the JSON reports must match byte for byte, and both must strict-parse.
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -robust scripts/robust_smoke.json -samples 6 -seed 42 -workers 2 \
    -robust-out "$SMOKE_DIR/ROBUST_1.json" > /dev/null
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -robust scripts/robust_smoke.json -samples 6 -seed 42 -workers 1 \
    -robust-out "$SMOKE_DIR/ROBUST_2.json" > /dev/null
if ! cmp -s "$SMOKE_DIR/ROBUST_1.json" "$SMOKE_DIR/ROBUST_2.json"; then
    echo "robustness reports differ across -workers values (replay contract broken):" >&2
    diff "$SMOKE_DIR/ROBUST_1.json" "$SMOKE_DIR/ROBUST_2.json" >&2 || true
    exit 1
fi
go run ./cmd/etbench -validate "$SMOKE_DIR"
echo "    robust batch byte-stable at -workers 1 vs 2"

echo "==> cut validity smoke (16-seed subset + short fuzz)"
go test -run 'TestCutValiditySmoke16|TestCoverDegenerateRows' ./internal/milp/cuts
go test -run '^$' -fuzz FuzzGomoryRow -fuzztime 5s ./internal/milp/cuts
go test -run '^$' -fuzz FuzzCoverSeparation -fuzztime 5s ./internal/milp/cuts

echo "==> worker determinism smoke (-workers 1 vs 4, without and with -dr)"
# Root cuts run in the sequential root phase, so the certified plan — in
# particular its full cost breakdown — must be identical at any worker
# count. At the default -gap 1e-3 the smoke state's -dr solve closes at
# the root without a cut; -gap 1e-4 makes it cut and branch.
for dr in "" "-dr"; do
    for w in 1 4; do
        "$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
            $dr -gap 1e-4 -workers "$w" -plan "$SMOKE_DIR/plan_w$w.json" \
            -metrics "$SMOKE_DIR/metrics_w$w.json" > /dev/null
        jq .cost "$SMOKE_DIR/plan_w$w.json" > "$SMOKE_DIR/cost_w$w.json"
    done
    if ! cmp -s "$SMOKE_DIR/cost_w1.json" "$SMOKE_DIR/cost_w4.json"; then
        echo "${dr:-non-DR} plan cost differs across -workers values:" >&2
        diff "$SMOKE_DIR/cost_w1.json" "$SMOKE_DIR/cost_w4.json" >&2 || true
        exit 1
    fi
done
if ! jq -e '.counters["milp.cuts_separated"] > 0 and .counters["milp.nodes"] > 0' \
    "$SMOKE_DIR/metrics_w1.json" > /dev/null; then
    echo "the -dr smoke solve no longer cuts and branches" >&2
    exit 1
fi
# Every warm-started LP of that solve (root cut re-solves, dives, node
# LPs) must finish on the warm path: dual restoration reaches primal
# feasibility or proves the LP infeasible, and never re-solves cold.
# The root LP starts dual from the all-slack basis, so no LP of the
# solve runs phase 1.
if ! jq -e '.counters["simplex.warm_hits"] > 0 and (.counters["simplex.warm_misses"] // 0) == 0
    and (.counters["simplex.phase1_pivots"] // 0) == 0' \
    "$SMOKE_DIR/metrics_w1.json" > /dev/null; then
    echo "the -dr smoke solve has no warm hits, re-solved a warm start cold or ran phase 1:" >&2
    jq -c '.counters | {warm_hits: .["simplex.warm_hits"], warm_misses: .["simplex.warm_misses"],
        phase1_pivots: .["simplex.phase1_pivots"]}' \
        "$SMOKE_DIR/metrics_w1.json" >&2
    exit 1
fi
echo "    plan cost identical at -workers 1 vs 4, without and with -dr"

echo "==> etserve service smoke (submit -> poll -> plan parity + cache hit)"
go build -o "$SMOKE_DIR/etserve" ./cmd/etserve
# Random port; -workers 1 for a deterministic solve matching the CLI run.
"$SMOKE_DIR/etserve" -addr 127.0.0.1:0 -workers 1 \
    > "$SMOKE_DIR/etserve.log" 2>&1 &
ETSERVE_PID=$!
trap 'kill "$ETSERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's#^etserve listening on ##p' "$SMOKE_DIR/etserve.log")
    [ -n "$base" ] && break
    if ! kill -0 "$ETSERVE_PID" 2>/dev/null; then
        echo "etserve exited before listening:" >&2
        cat "$SMOKE_DIR/etserve.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "etserve never printed its listen address" >&2
    cat "$SMOKE_DIR/etserve.log" >&2
    exit 1
fi
job=$(curl -sf -X POST --data-binary @"$SMOKE_DIR/asis.json" "$base/v1/plans" \
    | jq -r .id)
state=""
for _ in $(seq 1 600); do
    state=$(curl -sf "$base/v1/plans/$job" | jq -r .state)
    case $state in done|degraded|failed) break ;; esac
    sleep 0.2
done
if [ "$state" != "done" ]; then
    echo "etserve job $job ended in state \"$state\", want done" >&2
    curl -s "$base/v1/plans/$job" >&2 || true
    exit 1
fi
curl -sf "$base/v1/plans/$job/plan" > "$SMOKE_DIR/serve_plan.json"
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -workers 1 -plan "$SMOKE_DIR/cli_plan.json" > /dev/null
# The two wall-clock stats are the only machine-dependent bytes.
norm='del(.stats.wall_millis, .stats.work_millis)'
jq "$norm" "$SMOKE_DIR/serve_plan.json" > "$SMOKE_DIR/serve_plan.norm.json"
jq "$norm" "$SMOKE_DIR/cli_plan.json" > "$SMOKE_DIR/cli_plan.norm.json"
if ! cmp -s "$SMOKE_DIR/serve_plan.norm.json" "$SMOKE_DIR/cli_plan.norm.json"; then
    echo "etserve plan differs from the etransform CLI plan:" >&2
    diff "$SMOKE_DIR/serve_plan.norm.json" "$SMOKE_DIR/cli_plan.norm.json" >&2 || true
    exit 1
fi
echo "    serve plan byte-identical to CLI plan (modulo wall-clock stats)"
# An identical resubmission must be answered from the content-hash cache.
if ! curl -sf -X POST --data-binary @"$SMOKE_DIR/asis.json" "$base/v1/plans" \
    | jq -e '.cached == true and .state == "done"' > /dev/null; then
    echo "identical resubmission was not served from the cache" >&2
    exit 1
fi
hits=$(curl -sf "$base/v1/metrics" | jq '.counters["serve.cache_hits"] // 0')
if [ "$hits" -lt 1 ]; then
    echo "serve.cache_hits is $hits after a cache-hit resubmission, want >= 1" >&2
    exit 1
fi
echo "    cache hit on resubmission (serve.cache_hits=$hits)"
kill "$ETSERVE_PID" 2>/dev/null || true
wait "$ETSERVE_PID" 2>/dev/null || true
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> perfbench build + one-second smoke (plan-dr, serve-mix: untraced twice, traced once)"
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)
for w in plan-dr serve-mix; do
    for run in untraced-1 untraced-2 traced; do
        trace=0
        if [ "$run" = traced ]; then
            trace=1
        fi
        out="$SMOKE_DIR/perfbench-$w-$run.txt"
        rc=0
        bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$trace" \
            > "$out" 2>&1 || rc=$?
        if [ "$rc" -ne 0 ] || ! tail -n 1 "$out" \
            | jq -e '.correct and .failed == 0' > /dev/null; then
            echo "perfbench $w smoke ($run): exit $rc, or the last line is not correct with 0 failed:" >&2
            cat "$out" >&2
            exit 1
        fi
    done
    echo "    perfbench $w: correct, 0 failed (untraced twice, traced once)"
done

echo "==> all checks passed"
