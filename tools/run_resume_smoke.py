#!/usr/bin/env python3
"""Kill/resume smoke driver over the budget_stream example.

Proves the checkpoint story at the process level, where the unit tests
cannot: a *fresh OS process* resumed from a checkpoint file must print the
exact per-task result rows of a process that was never interrupted.

Three invocations of the same budgeted sequential stream:

1. full    — runs all tasks uninterrupted; its row table is the reference.
2. killed  — same configuration plus checkpoint=<tmp> stop_after=<k>; the
             process saves full state after k tasks and exits 0.
3. resumed — a fresh process with resume=<tmp>; it must finish the stream
             and print a row table byte-identical to the full run's (the
             restored rows are re-printed, so the two tables diff directly).

The driver then hardens the loader from the outside: a sample of truncations
and single-bit flips of the real checkpoint file is fed back through
resume=.  Every corrupted load must either fail with the pinned error path
(exit 2, "error:" on stderr — the r4ncl::Error convention shared by all
examples) or, for flips landing in plain payload data, load cleanly and run
to completion (exit 0).  Any other exit — a crash, a sanitizer abort, an
uncaught exception — fails the smoke.  A mismatched-configuration resume
(different eviction policy, epoch count or scale) must die with the pinned
"checkpoint mismatch".

    python3 tools/run_resume_smoke.py --binary build/examples/budget_stream
    python3 tools/run_resume_smoke.py --binary ... --emit-json BENCH_resume_parity.json

Exit 0 = parity held and every corruption was contained.  CI runs this under
the ASan+UBSan preset as the `ctest -L resume_smoke` lane, so the corrupted
loads also run sanitizer-checked.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Small but non-trivial stream: 4 arriving classes, kill after 2, so the
# resumed process replays half the stream from restored state.
COMMON_ARGS = ["scale=0.25", "tasks=4", "epochs=2", "pretrain_epochs=3",
               "policy=reservoir", "replay_samples=6"]
STOP_AFTER = 2
NUM_TASKS = 4
# Sampled offsets per corruption mode; the exhaustive every-byte sweep lives
# in tests/test_checkpoint.cpp — the smoke samples the same contract through
# a real process boundary.
CORRUPTION_SAMPLES = 16

# A per-task row printed by budget_stream:
#   "   0    14     832/4096      4       0     75.0%     75.0%"
ROW_RE = re.compile(r"^\s*\d+\s+\d+\s+\d+/\d+\s+\d+\s+\d+\s+[\d.]+%\s+[\d.]+%\s*$")


def run(binary: Path, extra: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([str(binary)] + COMMON_ARGS + extra, cwd=cwd,
                          capture_output=True, text=True, timeout=1200)


def row_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if ROW_RE.match(line)]


def fail(message: str) -> None:
    print(f"resume smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def check_exit(proc: subprocess.CompletedProcess, what: str, expect: int = 0) -> None:
    if proc.returncode != expect:
        sys.stderr.write(proc.stdout[-2000:] + "\n" + proc.stderr[-2000:] + "\n")
        fail(f"{what} exited {proc.returncode} (expected {expect})")


def corruption_trial(binary: Path, mangled: Path, payload: bytes,
                     cwd: Path, counts: dict) -> None:
    mangled.write_bytes(payload)
    proc = run(binary, [f"resume={mangled}"], cwd)
    counts["trials"] += 1
    if proc.returncode == 2 and "error:" in proc.stderr:
        counts["pinned_errors"] += 1
    elif proc.returncode == 0:
        # The flip landed in plain payload data; a clean (different) run is
        # within contract.  Truncations can never get here: every strict
        # prefix fails a length or tag check.
        counts["clean_passes"] += 1
    else:
        counts["crashes"] += 1
        sys.stderr.write(proc.stderr[-2000:] + "\n")
        fail(f"corrupted checkpoint ({mangled.name}) exited {proc.returncode} "
             f"instead of the pinned error path")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--binary", type=Path, required=True,
                        help="path to the built budget_stream example")
    parser.add_argument("--emit-json", type=Path, default=None,
                        help="write a BENCH_resume_parity.json artifact here")
    args = parser.parse_args()
    binary = args.binary.resolve()
    if not binary.exists():
        fail(f"binary not found: {binary}")

    with tempfile.TemporaryDirectory(prefix="resume_smoke_") as tmp:
        workdir = Path(tmp)
        ckpt = workdir / "run.ckpt"

        print("resume smoke: reference run (uninterrupted)...")
        full = run(binary, [], workdir)
        check_exit(full, "reference run")
        full_rows = row_lines(full.stdout)
        if len(full_rows) != NUM_TASKS:
            fail(f"reference run printed {len(full_rows)} rows, expected {NUM_TASKS}")

        print(f"resume smoke: killed run (checkpoint after {STOP_AFTER} tasks)...")
        killed = run(binary, [f"checkpoint={ckpt}", f"stop_after={STOP_AFTER}"], workdir)
        check_exit(killed, "killed run")
        killed_rows = row_lines(killed.stdout)
        if len(killed_rows) != STOP_AFTER:
            fail(f"killed run printed {len(killed_rows)} rows, expected {STOP_AFTER}")
        if f"stopped after {STOP_AFTER}/{NUM_TASKS} tasks" not in killed.stdout:
            fail("killed run did not report the early stop")
        if not ckpt.exists():
            fail("killed run left no checkpoint file")
        ckpt_bytes = ckpt.read_bytes()

        print("resume smoke: resumed run (fresh process)...")
        resumed = run(binary, [f"resume={ckpt}"], workdir)
        check_exit(resumed, "resumed run")
        resumed_rows = row_lines(resumed.stdout)

        # The parity contract: byte-identical row tables.
        if killed_rows != full_rows[:STOP_AFTER]:
            fail("killed run's completed rows diverge from the reference:\n"
                 + "\n".join(killed_rows) + "\n-- vs --\n"
                 + "\n".join(full_rows[:STOP_AFTER]))
        if resumed_rows != full_rows:
            fail("resumed rows diverge from the uninterrupted run:\n"
                 + "\n".join(resumed_rows) + "\n-- vs --\n" + "\n".join(full_rows))
        print(f"resume smoke: parity OK — {NUM_TASKS} rows byte-identical across "
              f"the process boundary")

        # Mismatched configuration: same checkpoint, different eviction
        # policy — must die on the pinned fingerprint check.
        mismatch = subprocess.run(
            [str(binary)] + ["scale=0.25", "tasks=4", "epochs=2", "pretrain_epochs=3",
                             "policy=fifo", "replay_samples=6", f"resume={ckpt}"],
            cwd=workdir, capture_output=True, text=True, timeout=1200)
        if mismatch.returncode != 2 or "checkpoint mismatch" not in mismatch.stderr:
            fail(f"mismatched-policy resume exited {mismatch.returncode} without "
                 f"the pinned mismatch error (stderr: {mismatch.stderr[-500:]!r})")
        print("resume smoke: mismatched-policy resume correctly rejected")

        # The run fingerprint also pins the epoch count and the task-set
        # sizes (scale= moves them): both resumes must die the same way.
        for knob in ("epochs=1", "scale=0.5"):
            changed = [knob if arg.split("=")[0] == knob.split("=")[0] else arg
                       for arg in COMMON_ARGS]
            proc = subprocess.run([str(binary)] + changed + [f"resume={ckpt}"], cwd=workdir,
                                  capture_output=True, text=True, timeout=1200)
            if proc.returncode != 2 or "checkpoint mismatch" not in proc.stderr:
                fail(f"resume under {knob} exited {proc.returncode} without the pinned "
                     f"mismatch error (stderr: {proc.stderr[-500:]!r})")
            print(f"resume smoke: resume under {knob} correctly rejected")

        # Corruption sweep (sampled; the exhaustive sweep is a unit test).
        mangled = workdir / "mangled.ckpt"
        truncation = {"trials": 0, "pinned_errors": 0, "clean_passes": 0, "crashes": 0}
        step = max(1, len(ckpt_bytes) // CORRUPTION_SAMPLES)
        for cut in range(0, len(ckpt_bytes), step):
            corruption_trial(binary, mangled, ckpt_bytes[:cut], workdir, truncation)
        if truncation["clean_passes"]:
            fail("a truncated checkpoint loaded cleanly")

        bitflip = {"trials": 0, "pinned_errors": 0, "clean_passes": 0, "crashes": 0}
        for offset in range(0, len(ckpt_bytes), step):
            payload = bytearray(ckpt_bytes)
            payload[offset] ^= 0x10
            corruption_trial(binary, mangled, bytes(payload), workdir, bitflip)
        if not bitflip["pinned_errors"]:
            fail("no bit flip tripped the pinned error path (sweep too shallow?)")
        print(f"resume smoke: corruption contained — "
              f"{truncation['trials']} truncations all pinned, "
              f"{bitflip['trials']} bit flips "
              f"({bitflip['pinned_errors']} pinned, {bitflip['clean_passes']} clean)")

        if args.emit_json:
            rows = []
            for i, (ref, res) in enumerate(zip(full_rows, resumed_rows)):
                rows.append({"mode": "parity", "task": str(i), "full": ref.strip(),
                             "resumed": res.strip(),
                             "identical": "1" if ref == res else "0"})
            for kind, counts in (("truncation", truncation), ("bitflip", bitflip)):
                rows.append({"mode": "corruption", "kind": kind,
                             **{k: str(v) for k, v in counts.items()}})
            doc = {
                "bench": "resume_parity",
                "description": "budget_stream kill/resume parity across a process "
                               "boundary, plus a sampled checkpoint-corruption sweep",
                "generated": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
                "command": "python3 tools/run_resume_smoke.py --binary "
                           "<build>/examples/budget_stream --emit-json "
                           "BENCH_resume_parity.json",
                "stop_after": str(STOP_AFTER),
                "tasks": str(NUM_TASKS),
                "rows": rows,
            }
            args.emit_json.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"resume smoke: wrote {args.emit_json}")

    print("resume smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
