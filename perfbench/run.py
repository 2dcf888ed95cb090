"""Benchmark of the three user runs of ``blowup``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each invocation is a fresh ``python3`` process that calls
``blowup.cli.main`` (``perfbench/child.py``): one client, one run at a time,
single process, closed loop.  Invocations start until ``--seconds`` have
passed since measuring began, so a run holds at least one.  Every
invocation passes the output gate or counts as failed, and its timings are
then left out.

``--trace 0`` reports the end-to-end metrics: ``cpu_s`` (median CPU time,
user plus system, of the subcommand from the parsed domain until ``main``
returns), ``setup_s`` (median, over several set-up-only processes, of the
CPU time the process spends from its start until the handler has parsed the
domain) and ``peak_rss_mb`` (median peak resident memory of the invocation
processes).  CPU time leaves out the time the process waits for a CPU.
On a 2-CPU VM that shares its host, CPU speed was seen to switch between
two levels about 35% apart several times a second, in proportions that
drift over minutes, so both times are also scaled to a fixed machine
speed: each set-up sample is preceded by a fixed reference loop
(``reference_s``), and the times are multiplied by ``REFERENCE_S`` over the
run's mean reference time.  The mean, not the median, because the subcommand
runs through many switches and so pays the average speed, while a median of
the reference samples would pick one of the two levels.  A change of the
program moves the scaled times as it moves the raw ones; a change of machine
speed moves the reference too.
The raw CPU and wall times, the reference times and the scale factor
(``speed``) are kept in the detail line.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``spans.UNITS`` (medians over the traced invocations)
plus the tracing overhead.  The line before the result carries the details:
the machine block, the per-invocation and set-up rows, summaries of the
raw times and the exact counters.  Every passing invocation of a run must report the same
exact counters as the first, or it counts as failed; in a ``--trace 1`` run
that compares the untraced with the traced invocation.

The workload seed is passed to ``whitney --seed`` (reduced modulo 2**32);
``solve-disk`` and ``audit-square`` draw no random numbers.  BLAS and OpenMP
thread pools are pinned to ``BLAS_THREADS`` in every invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans  # perfbench/ is the script's directory, so first on sys.path

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".bench_runs"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 11
# CPU seconds the reference loop is scaled to; it took 0.14-0.22 s on the
# 2-CPU Xeon VM the bounds were set on
REFERENCE_S = 0.2
# a run must end within 180 s; invocations still running at this point
# from its start are killed and count as failed
RUN_LIMIT_S = 170

UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class GateError(Exception):
    """An invocation's outputs deviate from the pinned values."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _load(out: pathlib.Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def _gate_solve(out, marks, seed):
    rep = _load(out, "solve_report.json")
    sup = rep["oracle"]["sup_error"]
    _require(rep["converged"], "solve did not converge")
    _require(rep["iterations"] == 4, f"{rep['iterations']} Newton steps, expected 4")
    _require(f"{sup:.3e}" == "5.838e-06", f"sup error {sup!r}, expected 5.838e-06")
    _require(rep["corollary4"]["pass"], "corollary-4 bound failed")
    return {
        "nodes": rep["nodes"],
        "newton_steps": rep["iterations"],
        "cg_iterations": [s["cg_iterations"] for s in rep["steps"]],
        "sup_error": sup,
    }


def _gate_whitney(out, marks, seed):
    props = _load(out, "whitney_properties.json")
    failed = [c["name"] for c in props["checks"] if not c["passed"]]
    _require(props["all_passed"] and not failed, f"property checks failed: {failed}")
    _require(props["seed"] == seed, f"report seed {props['seed']}, expected {seed}")
    listed = (out / "whitney_cubes.json").read_bytes().count(b'"level": ')
    _require(
        listed == marks.get("cubes") == 261956,
        f"cube counts {listed} listed / {marks.get('cubes')} decomposed, expected 261956",
    )
    return {
        "cubes": listed,
        "checks": len(props["checks"]),
        "empirical_overlap_max": props["empirical_overlap_max"],
    }


def _gate_audit(out, marks, seed):
    rep = _load(out, "chain_report.json")
    runs = rep["runs"]
    _require(rep["total_violations"] == 0, f"{rep['total_violations']} violations")
    _require(len(runs) == 13 and all(r["all_passed"] for r in runs), "chain audits failed")
    _require(marks.get("cubes") == 130900, f"{marks.get('cubes')} cubes, expected 130900")
    return {
        "cubes": marks["cubes"],
        "chain_audits": len(runs),
        "nodes": runs[0]["node_count"],
        "incidences": sum(r["incidence_count"] for r in runs),
    }


# name -> (CLI arguments for a seed, output gate, draws random numbers)
WORKLOADS = {
    "solve-disk": (
        lambda seed: ["solve", "--domain", "disk", "--h", "1/256"],
        _gate_solve,
        False,
    ),
    "whitney-lshape": (
        lambda seed: [
            "whitney", "--domain", "lshape", "--k-max", "14",
            "--coverage-samples", "1000000", "--seed", str(seed),
        ],
        _gate_whitney,
        True,
    ),
    "audit-square": (
        lambda seed: ["audit-chain", "--domain", "square", "--h", "1/250"],
        _gate_audit,
        False,
    ),
}


def invoke(workload: str, seed: int, mode: str, tag: str, deadline: float) -> dict:
    """Run one child process, killed at ``deadline`` (``time.monotonic``);
    returns its row (``error`` set on failure)."""
    argv_for, gate, _ = WORKLOADS[workload]
    out = RUNS_DIR / f"{workload}-{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    row = {"mode": mode}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(out), mode, "--", *argv_for(seed)],
            # BLOWUP_REPORT_DIR would override --report
            env={k: v for k, v in os.environ.items() if k != "BLOWUP_REPORT_DIR"},
            capture_output=True,
            text=True,
            timeout=max(0.0, deadline - time.monotonic()),
        )
        _require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        marks = _load(out, "child.json")
        row["setup_s"] = marks["ready_cpu"]
        if mode == "setup":
            return row
        row["cpu_s"] = marks["done_cpu"] - marks["ready_cpu"]
        row["wall_s"] = marks["done"] - marks["ready"]
        row["peak_rss_mb"] = marks["maxrss_kb"] / 1024.0
        row["outputs"] = gate(out, marks, seed)
        row["report_bytes"] = sum(
            p.stat().st_size for p in out.iterdir() if p.name not in ("child.json", "spans.json")
        )
        if mode == "trace":
            with open(out / "spans.json") as fh:
                row["layers"] = spans.layer_metrics(json.load(fh)["spans"])
            # keep the last traced run's spans for inspection
            shutil.move(out / "spans.json", RUNS_DIR / f"spans-{workload}-seed{seed}.json")
    except (GateError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return row


def reference_s() -> float:
    """CPU seconds of one fixed mix of interpreter and numpy work, the
    machine-speed yardstick.  It runs in this process, not in the program."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 17)
    table = {}
    start = time.process_time()
    for i in range(300_000):
        table[i % 997] = table.get(i % 997, 0) + i
    for _ in range(40):
        np.sort(data).cumsum()
    return time.process_time() - start


def setup_sample(workload: str, seed: int, tag: str, deadline: float) -> dict:
    """One set-up-only invocation, with the reference loop timed just before."""
    ref = reference_s()
    return {**invoke(workload, seed, "setup", tag, deadline), "reference_s": ref}


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (``None`` below 40 samples)."""
    values = sorted(values)
    n = len(values)
    out = {"samples": n, "median": statistics.median(values), "percentile": None}
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            k = min(n - 1, int(round(p / 100 * (n - 1))))
            out["percentile"] = {"p": p, "value": values[k]}
            break
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_block(seed: int, workload: str) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
        "draws_random_numbers": WORKLOADS[workload][2],
    }


def check_counters(rows) -> dict:
    """Fail every passing row whose gated outputs differ from those of the
    first passing row; return the exact counters with the number of rows
    compared.  Report bytes are left out: the solve report's runtime field
    changes its digit count from run to run."""
    good = [r for r in rows if "error" not in r]
    for r in good[1:]:
        if r["outputs"] != good[0]["outputs"]:
            r["error"] = f"GateError: outputs {r['outputs']} differ from {good[0]['outputs']}"
    traced = [r for r in good if r["mode"] == "trace"]
    layers = traced[0]["layers"] if traced else {}
    return {
        "values": {
            **(good[0]["outputs"] if good else {}),
            **{k: v for k, v in layers.items() if k in spans.EXACT},
        },
        "rows_compared": len(good),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blowup" / "cli.py").is_file():
        print(f"error: no blowup source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    deadline = time.monotonic() + RUN_LIMIT_S
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    # compiles the bytecode, so every timed process starts alike
    warm = invoke(args.workload, seed, "setup", "warm", deadline)
    if "error" in warm:
        print(f"error: set-up failed: {warm['error']}", file=sys.stderr)
        return 1

    modes = ["run"] if args.trace == 0 else ["run", "trace"]
    n_setup = SETUP_RUNS if args.trace == 0 else 0
    # set-up samples before and after the workload, so that they span the run
    setups = [
        setup_sample(args.workload, seed, f"setup{i}", deadline) for i in range(n_setup // 2)
    ]
    rows = []
    start = time.monotonic()
    while not rows or time.monotonic() - start < args.seconds:
        for mode in modes:
            rows.append(invoke(args.workload, seed, mode, str(len(rows)), deadline))
    setups += [
        setup_sample(args.workload, seed, f"setup{i}", deadline)
        for i in range(n_setup // 2, n_setup)
    ]

    counters = check_counters(rows)
    bad = [r for r in rows + setups if "error" in r]
    good = [r for r in rows if "error" not in r]
    runs = [r for r in good if r["mode"] == "run"]
    traced = [r for r in good if r["mode"] == "trace"]
    setup_ok = [r for r in setups if "error" not in r]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(seed, args.workload),
        "failure_rate": len(bad) / len(rows + setups),
        "errors": [r["error"] for r in bad],
        "counters": counters,
        "rows": rows,
        "setups": setups,
    }
    if args.trace == 0 and runs and setup_ok:
        for key, sample in (("cpu_s", runs), ("wall_s", runs), ("setup_s", setup_ok),
                            ("reference_s", setups)):
            detail[key] = summarize([r[key] for r in sample])
        detail["speed"] = REFERENCE_S / statistics.fmean(r["reference_s"] for r in setups)
        metrics = {
            "cpu_s": detail["cpu_s"]["median"] * detail["speed"],
            "setup_s": detail["setup_s"]["median"] * detail["speed"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = UNITS
    elif args.trace == 1 and runs and traced:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
        metrics["trace.untraced_cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
        metrics["trace.overhead_s"] = metrics["trace.cpu_s"] - metrics["trace.untraced_cpu_s"]
        units = spans.UNITS
    else:
        print(json.dumps(detail))
        print("error: no invocation passed the output gate", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    result = {
        "correct": not bad,
        "attempted": len(rows) + len(setups),
        "failed": len(bad),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
