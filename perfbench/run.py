"""End-to-end tiled-QR benchmark against LAPACK, with per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload square-fine --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh subprocess (``perfbench/workload.py``)
with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 before NumPy is imported, as a closed loop
with one caller.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; both print a provenance line and end
with one JSON result line.  Records and spans go to ``perfbench/out/``.
Metric names, units and the design behind them are in
``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("square-fine", "square-coarse-threaded", "tall-lstsq", "mp-paper-plan")
#: Set-ups per run: extra fresh processes plus the measuring one.
SETUPS = 3
#: Every run must end within this many seconds.
BUDGET_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``workload.py`` in its own process group; its last stdout line is JSON.

    On a timeout the whole process group (with any worker processes) is
    killed and reaped.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), *args, "--out-dir", str(OUT)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("workload exceeded the time budget") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    started = monotonic()
    deadline = started + BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    design = json.loads((HERE / "design.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in design[kind]}

    env = dict(os.environ)
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        child_args.append("--smoke")

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_child([*child_args, "--setup-only"], env, deadline)["setup_s"])
        result = run_child(child_args, env, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = median(setups)
        result["detail"]["setup_s"] = setups
    missing = set(units) - set(metrics)
    if missing:
        print(f"benchmark failed: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": design["loop"],
        "provenance": {
            **result["provenance"],
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "seed": args.seed,
        },
        "detail": result["detail"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "wall_s": monotonic() - started,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"provenance": record["provenance"], "record": str(OUT / name)}))
    detail = result["detail"]
    if not args.trace:
        print(
            f"{args.workload}: {detail['samples']} ops timed; "
            f"op_s_p50={detail['op_s_p50']:.4f} s; op_s_tail={detail['op_s_tail']:.4f} s "
            f"(p{detail['op_s_tail_percentile']:.0f}, {detail['op_s_tail_beyond']} "
            f"samples beyond); fail_frac={detail['fail_frac']:g} "
            f"({result['failed']}/{result['attempted']})"
        )
    else:
        print(f"{args.workload}: {detail['traced_ops']} traced ops; "
              f"spans in {detail['spans_file']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
