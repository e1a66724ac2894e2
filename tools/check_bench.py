#!/usr/bin/env python3
"""Bench-regression gate over the checked-in BENCH_*.json files.

Validates three things for each of BENCH_budget_sweep.json,
BENCH_baseline.json and BENCH_resume_parity.json:

1. Schema — the file parses, carries its metadata envelope and every row
   has the full column set with numeric fields that actually parse.
2. Self-check fields — invariants the generating runs themselves enforce
   must still hold in the committed data: buffer bytes within the byte
   budget, delta_vs_unbounded agreeing with the accuracy columns, resumed
   rows equal to the uninterrupted run's, and every truncated checkpoint
   rejected on the pinned error path without a crash.
3. Pinned headline statistics — the numbers the README/ROADMAP quote may
   not silently regress past tolerance when a sweep is refreshed: the
   importance policies must match or beat the best content-blind policy at
   the tightest budget, 4-bit latents must hold >= QUANT_CAPACITY_MIN_RATIO
   x the 8-bit entries at equal bytes, and the Table-1 latent-memory saving
   and latency speedup must stay inside their pinned bands.

Exit code 0 = all gates pass.  Any failure prints `bench gate: FAIL ...`
and exits 1, which is what the CI `bench gate` job keys off.

--metrics-snapshot FILE instead validates one obs::MetricsRegistry
snapshot written by metrics_out= (schema, value sanity, counter/byte
cross-invariants), then corrupts copies of it seven ways and fails unless
every corruption trips the validator (the metrics_smoke ctest lane).

    python3 tools/check_bench.py              # validate the repo's files
    python3 tools/check_bench.py --dir DIR    # validate copies elsewhere
    python3 tools/check_bench.py --self-test  # prove the gate catches
                                              # hand-corrupted data
    python3 tools/check_bench.py --metrics-snapshot FILE  # one snapshot

The self-test corrupts in-memory copies of the real files (budget
overflow, headline regressions, dropped column, delta mismatch, resume
divergence) and fails if any corruption slips through — so the gate cannot
rot into a rubber stamp.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

# ---- Tolerances / pinned bands ---------------------------------------------
# Accuracy columns are deterministic for a given toolchain, so the float
# comparisons only need to absorb the two-decimal formatting.
DELTA_PARITY_TOL = 0.011
# The importance headline: best importance-aware policy vs best content-blind
# policy at the tightest const budget fraction (accuracy points).
IMPORTANCE_HEADROOM_TOL = 0.0
# Ravaglia-effect floor: resident 4-bit entries per resident 8-bit entry at
# equal capacity (ideal 2.0; header overhead eats a little).
QUANT_CAPACITY_MIN_RATIO = 1.5
# Table-1 anchor: the paper reports a 20% latent-memory saving; the repo's
# byte-per-row padding lands it in the 20-21.88% band.  Gate generously.
BASELINE_MEMORY_SAVING_BAND = (15.0, 30.0)
BASELINE_MIN_LATENCY_SPEEDUP = 1.3

CONTENT_BLIND = {"fifo", "reservoir", "class_balanced"}
IMPORTANCE_AWARE = {"low_importance", "importance_class_balanced"}

BUDGET_SWEEP_COLUMNS = [
    "method", "latent_bits", "budget_frac", "budget_bytes", "policy", "schedule",
    "final_bytes", "entries", "evictions", "acc_base", "acc_learned",
    "delta_vs_unbounded", "latency_ms",
]


class GateFailure(Exception):
    """One failed gate; the message names the file, row and invariant."""


def fnum(row: dict, key: str, context: str) -> float:
    value = row.get(key)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise GateFailure(f"{context}: field '{key}' is not numeric (got {value!r})")


def require_columns(rows: list, columns: list, context: str) -> None:
    if not rows:
        raise GateFailure(f"{context}: no rows")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise GateFailure(f"{context}: row {i} is not an object")
        missing = [c for c in columns if c not in row]
        if missing:
            raise GateFailure(f"{context}: row {i} missing column(s) {missing}")


def require_envelope(doc: dict, context: str) -> list:
    if not isinstance(doc, dict):
        raise GateFailure(f"{context}: expected a metadata object envelope")
    for key in ("bench", "description", "generated", "command", "rows"):
        if key not in doc:
            raise GateFailure(f"{context}: metadata envelope missing '{key}'")
    if not isinstance(doc["rows"], list):
        raise GateFailure(f"{context}: 'rows' is not an array")
    return doc["rows"]


def base_method(name: str) -> str:
    """Replay4NCL-q4 -> Replay4NCL (the -q<bits> suffix is per-depth)."""
    stem, sep, suffix = name.rpartition("-q")
    if sep and suffix.isdigit():
        return stem
    return name


# ---- BENCH_budget_sweep.json -----------------------------------------------

def check_budget_sweep(doc) -> int:
    ctx = "budget_sweep"
    rows = require_envelope(doc, ctx)
    require_columns(rows, BUDGET_SWEEP_COLUMNS, ctx)
    checks = 0

    # Reference (unbounded) accuracy per method family, for delta parity.
    reference = {}
    for row in rows:
        if row["policy"] == "unbounded":
            reference[base_method(row["method"])] = fnum(row, "acc_learned", ctx)

    tightest_frac = None
    for row in rows:
        frac = row["budget_frac"]
        try:
            value = float(frac)
        except ValueError:
            continue
        if value < 1.0 and (tightest_frac is None or value < float(tightest_frac)):
            tightest_frac = frac
    if tightest_frac is None:
        raise GateFailure(f"{ctx}: no bounded budget_frac rows (sweep 1 missing)")

    for i, row in enumerate(rows):
        where = f"{ctx}: row {i} ({row['method']}/{row['budget_frac']}/{row['policy']})"
        budget = fnum(row, "budget_bytes", where)
        final = fnum(row, "final_bytes", where)
        # Self-check: the byte budget held (unbounded rows carry budget 0).
        if budget > 0 and final > budget:
            raise GateFailure(f"{where}: final_bytes {final} exceeds budget_bytes {budget}")
        checks += 1
        for key in ("acc_base", "acc_learned"):
            acc = fnum(row, key, where)
            if not 0.0 <= acc <= 100.0:
                raise GateFailure(f"{where}: {key}={acc} outside [0, 100]")
        # Self-check: the delta column is derived, so it must agree with the
        # accuracy columns against the method family's unbounded reference.
        family = base_method(row["method"])
        if family in reference:
            expected = fnum(row, "acc_learned", where) - reference[family]
            delta = fnum(row, "delta_vs_unbounded", where)
            if abs(delta - expected) > DELTA_PARITY_TOL:
                raise GateFailure(
                    f"{where}: delta_vs_unbounded {delta} != acc_learned - unbounded "
                    f"({expected:.2f})")
            checks += 1

    # Headline: at the tightest const budget the best importance-aware policy
    # matches or beats the best content-blind policy.
    best = {}
    for row in rows:
        if row["budget_frac"] != tightest_frac or row["schedule"] != "const":
            continue
        policy = row["policy"]
        acc = fnum(row, "acc_learned", f"{ctx}: tightest-budget row")
        best[policy] = max(best.get(policy, acc), acc)
    blind = [best[p] for p in CONTENT_BLIND if p in best]
    aware = [best[p] for p in IMPORTANCE_AWARE if p in best]
    if not blind or not aware:
        raise GateFailure(
            f"{ctx}: tightest budget ({tightest_frac}) lacks content-blind or "
            f"importance-aware policy rows (have: {sorted(best)})")
    if max(aware) + IMPORTANCE_HEADROOM_TOL < max(blind):
        raise GateFailure(
            f"{ctx}: importance headline regressed at budget_frac {tightest_frac}: "
            f"best importance-aware acc_learned {max(aware):.2f} < best "
            f"content-blind {max(blind):.2f}")
    checks += 1

    # Headline: 4-bit latents hold >= QUANT_CAPACITY_MIN_RATIO x the 8-bit
    # entries at equal capacity (Replay4NCL family, quant sweep).
    entries = {}
    for row in rows:
        if row["budget_frac"] == "quant" and base_method(row["method"]) == "Replay4NCL":
            entries[row["latent_bits"]] = fnum(row, "entries", f"{ctx}: quant row")
    if "8" not in entries or "4" not in entries:
        raise GateFailure(f"{ctx}: quant sweep missing 8-bit or 4-bit Replay4NCL rows")
    if entries["8"] <= 0 or entries["4"] / entries["8"] < QUANT_CAPACITY_MIN_RATIO:
        raise GateFailure(
            f"{ctx}: quant capacity headline regressed: 4-bit entries {entries['4']} "
            f"vs 8-bit {entries['8']} (< {QUANT_CAPACITY_MIN_RATIO}x)")
    checks += 1
    return checks


# ---- BENCH_baseline.json ----------------------------------------------------

def check_baseline(doc) -> int:
    ctx = "baseline"
    rows = require_envelope(doc, ctx)
    require_columns(rows, ["metric", "SpikingLR", "Replay4NCL"], ctx)
    by_metric = {row["metric"]: row for row in rows}
    checks = 0

    saving_row = by_metric.get("latent memory saving [%]")
    if saving_row is None:
        raise GateFailure(f"{ctx}: missing 'latent memory saving [%]' row")
    saving = fnum(saving_row, "Replay4NCL", ctx)
    lo, hi = BASELINE_MEMORY_SAVING_BAND
    if not lo <= saving <= hi:
        raise GateFailure(
            f"{ctx}: latent-memory saving {saving}% outside the pinned "
            f"[{lo}, {hi}]% band")
    checks += 1

    speedup_row = by_metric.get("latency speedup")
    if speedup_row is None:
        raise GateFailure(f"{ctx}: missing 'latency speedup' row")
    raw = str(speedup_row.get("Replay4NCL", "")).rstrip("x")
    try:
        speedup = float(raw)
    except ValueError:
        raise GateFailure(f"{ctx}: latency speedup is not numeric "
                          f"(got {speedup_row.get('Replay4NCL')!r})")
    if speedup < BASELINE_MIN_LATENCY_SPEEDUP:
        raise GateFailure(
            f"{ctx}: Replay4NCL latency speedup {speedup}x below the pinned "
            f"{BASELINE_MIN_LATENCY_SPEEDUP}x floor")
    checks += 1
    return checks


# ---- obs metrics snapshots ---------------------------------------------------

METRICS_SCHEMA = "r4ncl-metrics-v1"


def finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_metrics_snapshot(doc, ctx: str = "metrics_snapshot") -> int:
    """Validates one obs::MetricsRegistry snapshot: the pinned schema tag,
    per-section value sanity (counters are non-negative integers, gauges are
    finite, histogram edges strictly increase and bucket counts reconcile
    with the total), and the cross-metric invariants the instrumented code
    guarantees (shard adds sum to the engine total, per-policy evictions sum
    to the buffer total, evictions never exceed adds + restored entries, and
    occupancy gauges respect their capacity gauges).  Run over a
    metrics_out= file by --metrics-snapshot (the metrics_smoke lane)."""
    checks = 0
    if not isinstance(doc, dict):
        raise GateFailure(f"{ctx}: expected a snapshot object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise GateFailure(f"{ctx}: schema {doc.get('schema')!r} != {METRICS_SCHEMA!r}")
    checks += 1
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise GateFailure(f"{ctx}: missing '{section}' object")
    counters = doc["counters"]
    gauges = doc["gauges"]

    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise GateFailure(
                f"{ctx}: counter {name} = {value!r} is not a non-negative integer")
        checks += 1
    for name, value in gauges.items():
        if not finite_number(value):
            raise GateFailure(f"{ctx}: gauge {name} = {value!r} is not a finite number")
        checks += 1
    for name, hist in doc["histograms"].items():
        where = f"{ctx}: histogram {name}"
        if not isinstance(hist, dict):
            raise GateFailure(f"{where}: not an object")
        edges = hist.get("edges")
        counts = hist.get("counts")
        if not isinstance(edges, list) or not edges:
            raise GateFailure(f"{where}: missing or empty edges")
        if not all(finite_number(e) for e in edges):
            raise GateFailure(f"{where}: non-finite edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise GateFailure(f"{where}: edges not strictly increasing: {edges}")
        if not isinstance(counts, list) or len(counts) != len(edges) + 1:
            raise GateFailure(
                f"{where}: counts must have len(edges) + 1 buckets "
                f"(the last is overflow), got {counts!r}")
        if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in counts):
            raise GateFailure(f"{where}: bucket counts must be non-negative integers")
        if hist.get("count") != sum(counts):
            raise GateFailure(
                f"{where}: count {hist.get('count')!r} != bucket sum {sum(counts)}")
        if not finite_number(hist.get("sum")):
            raise GateFailure(f"{where}: sum {hist.get('sum')!r} is not finite")
        checks += 4

    # Cross-invariants between named metrics.  Each fires only when its
    # metrics are present — the registry registers lazily, so a snapshot from
    # a run that never touched the engine has no shard counters to reconcile.
    shard_adds = [v for k, v in counters.items()
                  if k.startswith("replay_engine.shard") and k.endswith(".adds")]
    if shard_adds and "replay_engine.adds" in counters:
        if sum(shard_adds) != counters["replay_engine.adds"]:
            raise GateFailure(
                f"{ctx}: shard adds sum {sum(shard_adds)} != engine total "
                f"{counters['replay_engine.adds']}")
        checks += 1
    policy_evictions = [v for k, v in counters.items()
                        if k.startswith("replay_buffer.evictions.")]
    if policy_evictions and "replay_buffer.evictions" in counters:
        if sum(policy_evictions) != counters["replay_buffer.evictions"]:
            raise GateFailure(
                f"{ctx}: per-policy evictions sum {sum(policy_evictions)} != "
                f"total {counters['replay_buffer.evictions']}")
        checks += 1
    needed = {"replay_buffer.evictions", "replay_buffer.adds",
              "replay_buffer.restored_entries"}
    if needed <= counters.keys():
        budget = counters["replay_buffer.adds"] + counters["replay_buffer.restored_entries"]
        if counters["replay_buffer.evictions"] > budget:
            raise GateFailure(
                f"{ctx}: evictions {counters['replay_buffer.evictions']} exceed "
                f"adds + restored_entries ({budget}) — an entry was evicted twice")
        checks += 1
    for name, occupancy in gauges.items():
        if not name.endswith(".occupancy_bytes"):
            continue
        capacity = gauges.get(name[:-len("occupancy_bytes")] + "capacity_bytes")
        if capacity is not None and capacity > 0 and occupancy > capacity:
            raise GateFailure(
                f"{ctx}: {name} = {occupancy} exceeds its capacity gauge {capacity}")
        checks += 1
    return checks


# ---- BENCH_resume_parity.json ------------------------------------------------

def check_resume_parity(doc) -> int:
    ctx = "resume_parity"
    rows = require_envelope(doc, ctx)
    checks = 0

    parity = [r for r in rows if isinstance(r, dict) and r.get("mode") == "parity"]
    corruption = {r.get("kind"): r for r in rows
                  if isinstance(r, dict) and r.get("mode") == "corruption"}
    if len(parity) < 3:
        raise GateFailure(f"{ctx}: only {len(parity)} parity rows (need >= 3 tasks)")
    require_columns(parity, ["task", "full", "resumed", "identical"], f"{ctx}: parity")

    # Self-check: the resumed process printed byte-identical rows, and the
    # recorded row text actually agrees with the flag.
    for i, row in enumerate(parity):
        where = f"{ctx}: parity row {i} (task {row['task']})"
        if row["identical"] != "1":
            raise GateFailure(f"{where}: resume diverged from the reference run")
        if row["full"] != row["resumed"]:
            raise GateFailure(f"{where}: identical flag set but row text differs")
        checks += 2

    # Headline: the corruption sweep ran, truncations were all contained on
    # the pinned error path, and nothing crashed.
    for kind in ("truncation", "bitflip"):
        row = corruption.get(kind)
        if row is None:
            raise GateFailure(f"{ctx}: missing corruption row for {kind}")
        where = f"{ctx}: corruption/{kind}"
        if fnum(row, "trials", where) <= 0:
            raise GateFailure(f"{where}: no trials recorded")
        if fnum(row, "crashes", where) != 0:
            raise GateFailure(f"{where}: {row['crashes']} corrupted load(s) crashed")
        checks += 2
    trunc = corruption["truncation"]
    if fnum(trunc, "clean_passes", ctx) != 0:
        raise GateFailure(f"{ctx}: a truncated checkpoint loaded cleanly")
    if fnum(trunc, "pinned_errors", ctx) != fnum(trunc, "trials", ctx):
        raise GateFailure(f"{ctx}: truncation trials not all on the pinned error path")
    checks += 2
    return checks


CHECKS = {
    "BENCH_budget_sweep.json": check_budget_sweep,
    "BENCH_baseline.json": check_baseline,
    "BENCH_resume_parity.json": check_resume_parity,
}


def load(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise GateFailure(f"{path}: missing")
    except json.JSONDecodeError as err:
        raise GateFailure(f"{path}: not valid JSON ({err})")


def run_gate(directory: Path) -> int:
    total = 0
    for name, check in sorted(CHECKS.items()):
        doc = load(directory / name)
        total += check(doc)
    return total


# ---- Self-test ---------------------------------------------------------------

def expect_failure(label: str, check, doc) -> None:
    try:
        check(doc)
    except GateFailure:
        return
    raise SystemExit(f"bench gate: SELF-TEST FAIL — corruption not caught: {label}")


def self_test(directory: Path) -> int:
    """Corrupts in-memory copies of the real artifacts and asserts that every
    corruption trips its gate — the 'hand-corrupted JSON must fail' proof."""
    sweep = load(directory / "BENCH_budget_sweep.json")
    baseline = load(directory / "BENCH_baseline.json")
    resume = load(directory / "BENCH_resume_parity.json")
    # The pristine copies must pass before corruption means anything.
    check_budget_sweep(copy.deepcopy(sweep))
    check_baseline(copy.deepcopy(baseline))
    check_resume_parity(copy.deepcopy(resume))

    cases = 0

    bad = copy.deepcopy(sweep)
    for row in bad["rows"]:
        if float(row["budget_bytes"] or 0) > 0:
            row["final_bytes"] = str(int(float(row["budget_bytes"])) + 1)
            break
    expect_failure("budget overflow", check_budget_sweep, bad)
    cases += 1

    # Headline regression written with *consistent* deltas, so the per-row
    # delta-parity check cannot mask a deleted/broken headline gate — only
    # the importance-vs-content-blind comparison itself can catch this one.
    bad = copy.deepcopy(sweep)
    references = {base_method(r["method"]): float(r["acc_learned"])
                  for r in bad["rows"] if r["policy"] == "unbounded"}
    for row in bad["rows"]:
        if row["policy"] in IMPORTANCE_AWARE:
            row["acc_learned"] = "0.00"
            row["delta_vs_unbounded"] = (
                f"{0.0 - references[base_method(row['method'])]:.2f}")
    expect_failure("importance headline regression", check_budget_sweep, bad)
    cases += 1

    bad = copy.deepcopy(sweep)
    bad["rows"][0]["acc_learned"] = "41.00"  # breaks delta parity
    expect_failure("delta/accuracy mismatch", check_budget_sweep, bad)
    cases += 1

    bad = copy.deepcopy(sweep)
    del bad["rows"][1]["policy"]
    expect_failure("dropped column", check_budget_sweep, bad)
    cases += 1

    bad = copy.deepcopy(sweep)
    for row in bad["rows"]:
        if row["latent_bits"] == "4":
            row["entries"] = "1"
    expect_failure("quant capacity regression", check_budget_sweep, bad)
    cases += 1

    bad = copy.deepcopy(baseline)
    for row in bad["rows"]:
        if row["metric"] == "latent memory saving [%]":
            row["Replay4NCL"] = "2.00"
    expect_failure("memory-saving band", check_baseline, bad)
    cases += 1

    bad = copy.deepcopy(sweep)
    bad.pop("command")
    expect_failure("missing metadata envelope field", check_budget_sweep, bad)
    cases += 1

    # Resume divergence written *consistently* (flag and text both lie the
    # same way is impossible: flag=0 trips the flag gate, differing text with
    # flag=1 trips the text gate) — corrupt each side separately.
    bad = copy.deepcopy(resume)
    for row in bad["rows"]:
        if row["mode"] == "parity":
            row["identical"] = "0"
            break
    expect_failure("resume parity flag", check_resume_parity, bad)
    cases += 1

    bad = copy.deepcopy(resume)
    for row in bad["rows"]:
        if row["mode"] == "parity":
            row["resumed"] = row["resumed"] + "x"
            break
    expect_failure("resume row text divergence", check_resume_parity, bad)
    cases += 1

    bad = copy.deepcopy(resume)
    for row in bad["rows"]:
        if row["mode"] == "corruption":
            row["crashes"] = "1"
            break
    expect_failure("resume corruption crash", check_resume_parity, bad)
    cases += 1

    bad = copy.deepcopy(resume)
    for row in bad["rows"]:
        if row["mode"] == "corruption" and row["kind"] == "truncation":
            row["clean_passes"] = "1"
    expect_failure("truncated checkpoint loaded cleanly", check_resume_parity, bad)
    cases += 1

    return cases


def snapshot_self_test(snapshot: dict, ctx: str) -> int:
    """Corrupts copies of a valid metrics snapshot seven ways and asserts
    that check_metrics_snapshot rejects every one.  The snapshot must carry
    what the corruptions touch: the engine and per-shard add counters, the
    buffer's add, eviction and restored-entry counters, an occupancy gauge
    beside its positive capacity gauge and a histogram with at least two
    edges.  The metrics_smoke run's sharded, streamed snapshot has them all."""
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    hists = snapshot["histograms"]
    missing = [name for name in ("replay_engine.adds", "replay_buffer.adds",
                                 "replay_buffer.evictions",
                                 "replay_buffer.restored_entries")
               if name not in counters]
    if not any(k.startswith("replay_engine.shard") and k.endswith(".adds") for k in counters):
        missing.append("replay_engine.shard<i>.adds")
    capacity = next((name for name, value in sorted(gauges.items())
                     if name.endswith(".capacity_bytes") and value > 0
                     and name[:-len("capacity_bytes")] + "occupancy_bytes" in gauges), None)
    if capacity is None:
        missing.append("a positive *.capacity_bytes gauge beside its occupancy gauge")
    hist = next((name for name, h in sorted(hists.items()) if len(h["edges"]) > 1), None)
    if hist is None:
        missing.append("a histogram with two or more edges")
    if missing:
        raise GateFailure(f"{ctx}: the snapshot self-test needs {missing}")

    occupancy = capacity[:-len("capacity_bytes")] + "occupancy_bytes"
    # One eviction more than adds + restored entries, with the per-policy
    # counts raised to match, so only that bound (not their sum) can trip.
    evictions = counters["replay_buffer.evictions"]
    over = {"replay_buffer.evictions": counters["replay_buffer.adds"]
            + counters["replay_buffer.restored_entries"] + 1}
    per_policy = sorted(k for k in counters if k.startswith("replay_buffer.evictions."))
    if per_policy:
        over[per_policy[0]] = counters[per_policy[0]] + over["replay_buffer.evictions"] - evictions
    cases = [
        ("metrics schema tag", lambda s: s.update(schema="r4ncl-metrics-v0")),
        ("negative counter", lambda s: s["counters"].update({sorted(counters)[0]: -1})),
        ("shard adds / engine total mismatch",
         lambda s: s["counters"].update(
             {"replay_engine.adds": counters["replay_engine.adds"] + 1})),
        ("evictions exceed adds + restored", lambda s: s["counters"].update(over)),
        ("histogram count / bucket-sum mismatch",
         lambda s: s["histograms"][hist].update(count=hists[hist]["count"] + 1)),
        ("histogram edges not increasing",
         lambda s: s["histograms"][hist].update(
             edges=sorted(hists[hist]["edges"], reverse=True))),
        ("occupancy gauge over capacity",
         lambda s: s["gauges"].update({occupancy: gauges[capacity] + 1})),
    ]
    for label, corrupt in cases:
        bad = copy.deepcopy(snapshot)
        corrupt(bad)
        expect_failure(label, lambda doc: check_metrics_snapshot(doc, ctx), bad)
    return len(cases)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dir", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="directory holding the BENCH_*.json files (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt in-memory copies and assert every gate trips")
    parser.add_argument("--metrics-snapshot", type=Path, default=None,
                        help="validate one metrics_out= snapshot file, and prove on "
                             "corrupted copies of it that the validator trips, "
                             "instead of the checked-in BENCH_*.json artifacts")
    args = parser.parse_args()

    try:
        if args.metrics_snapshot is not None:
            ctx = str(args.metrics_snapshot)
            snapshot = load(args.metrics_snapshot)
            checks = check_metrics_snapshot(snapshot, ctx)
            cases = snapshot_self_test(snapshot, ctx)
            print(f"bench gate: metrics snapshot OK ({checks} checks, "
                  f"{cases} corruptions all caught)")
        elif args.self_test:
            cases = self_test(args.dir)
            print(f"bench gate: self-test OK ({cases} corruptions all caught)")
        else:
            checks = run_gate(args.dir)
            print(f"bench gate: OK ({len(CHECKS)} files, {checks} checks)")
    except GateFailure as err:
        print(f"bench gate: FAIL — {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
