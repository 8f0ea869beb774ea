"""The repository benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload graph-session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Each workload run happens in a fresh interpreter (so ``peak_rss_mb`` is that
workload's own peak).  Three more fresh interpreters, two before it and one
after, each time the set-up alone; ``setup_s`` is their median.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Lines before it are the human-readable
report, including the workload-specific metrics by name with units.  The
exit code is 0 only when every check passed; 2 when the library source is
missing.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("graph-session", "metric-session", "service-mix")
#: Set-up probes run before and after the measuring child.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 1
#: Every child must end within this many seconds of the benchmark's start.
DEADLINE_SECONDS = 170.0

UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "requests_per_s": "1/s",
    "lightness": "ratio",
    "edges_per_vertex": "ratio",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    """The facts every result is recorded with."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "builder_workers": 1,
        "platform": platform.platform(),
    }


def _import_workloads():
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Child roles (each in its own interpreter)
# ---------------------------------------------------------------------------
def role_setup(args) -> int:
    """Time import + input generation + serving objects, from a fresh interpreter."""
    sys.path.insert(0, str(HERE))
    from calibration import CALIBRATION_REFERENCE_S, calibration_seconds

    before = calibration_seconds()
    started = time.perf_counter()
    workloads = _import_workloads()
    workdir = WORKDIR / f"setup-{os.getpid()}"
    try:
        workload = workloads.set_up(args.workload, args.seed, args.size, workdir)
        elapsed = time.perf_counter() - started
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = calibration_seconds()
    scale = CALIBRATION_REFERENCE_S / ((before + after) / 2.0)
    print(json.dumps({"setup_s": elapsed * scale, "setup_wall_s": elapsed}))
    return 0


def role_measure(args) -> int:
    workloads = _import_workloads()
    workdir = WORKDIR / f"run-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        out = workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            workdir, spans_path=WORKDIR / f"{stem}-spans.jsonl",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------
def _child(role: str, args, workload: str, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    remaining = max(1.0, deadline - time.monotonic())
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{role} child for {workload} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def compose(child: dict, setup_samples: list[float], trace: bool) -> dict:
    """The contract line for one workload run, from the measuring child."""
    attempted, failed = int(child["attempted"]), int(child["failed"])
    if trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in child["per_layer"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "request_p50_s": child["request_p50_s"],
            "requests_per_s": child["requests_per_s"],
            "lightness": child["quality"]["lightness"],
            "edges_per_vertex": child["quality"]["edges_per_vertex"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def named_metrics(child: dict, setup_samples: list[float]) -> list[tuple]:
    """The workload's metrics under their descriptive names, with units."""
    attempted, failed = int(child["attempted"]), int(child["failed"])
    rows = [
        ("setup_s", statistics.median(setup_samples), "s",
         f"median of {len(setup_samples)} fresh-interpreter set-ups"),
        ("request_p50_s", child["request_p50_s"], "s",
         f"median over {len(child['round_walls'])} rounds, {child['requests']} requests"),
        ("requests_per_s", child["requests_per_s"], "1/s",
         f"median over {len(child['round_walls'])} rounds"),
    ]
    rows += [tuple(row) for row in child["named"]]
    if child["workload"] == "service-mix":
        rows.append(("jobs_per_s", child["requests_per_s"], "1/s", "closed loop, 1 client"))
    rows += [
        ("lightness", child["quality"]["lightness"], "ratio", "exact greedy spanner"),
        ("edges_per_vertex", child["quality"]["edges_per_vertex"], "ratio", ""),
        ("failed_ratio", failed / attempted if attempted else 0.0, "ratio",
         f"{failed} of {attempted} checks"),
        ("peak_rss_mb", child["peak_rss_mb"], "MB", "fresh process"),
    ]
    return rows


def report(child: dict, setup_samples: list[float], line: dict) -> None:
    print(f"perfbench {child['workload']} seed={child['seed']} size={child['size']} "
          f"rounds={child['rounds']} inputs={child['inputs'][:16]} "
          f"spanners={child['spanner_digest'][:16]}")
    print("env " + json.dumps(child["env"], sort_keys=True))
    print(f"host slowdown {child['host_slowdown']:.3f} (calibration median / reference); "
          f"raw wall request_p50 {child['request_p50_wall_s']:.6g} s; "
          "times below are reference seconds")
    if "per_layer" in child:
        for name, body in line["metrics"].items():
            print(f"  {name:<48} {body['value']:>14.6g} {body['unit']}")
        for layer, seconds in sorted(child["layer_self_s"].items()):
            print(f"  self time {layer:<38} {seconds:>14.6g} s")
    else:
        for name, value, unit, note in named_metrics(child, setup_samples):
            print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    for message in child["failures"]:
        print(f"  FAILED: {message}")


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict, list[float]]:
    def probe() -> dict:
        return _child("setup", args, workload, deadline)

    probes = [probe() for _ in range(SETUP_PROBES_BEFORE)]
    child = _child("measure", args, workload, deadline)
    probes += [probe() for _ in range(SETUP_PROBES_AFTER)]
    setup_samples = [sample["setup_s"] for sample in probes]
    line = compose(child, setup_samples, bool(args.trace))
    WORKDIR.mkdir(exist_ok=True)
    record = {"result": line, "child": child, "setup_probes": probes}
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return child, line, setup_samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SOURCE}", file=sys.stderr)
        return 2
    if args.role == "setup":
        return role_setup(args)
    if args.role == "measure":
        return role_measure(args)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_SECONDS * len(names)
    lines = {}
    for name in names:
        child, line, setup_samples = run_workload(args, name, deadline)
        report(child, setup_samples, line)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}.{metric}": body
                for name, line in lines.items() for metric, body in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return exit_code(final)


def exit_code(line: dict) -> int:
    """0 only when every check of the run passed."""
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
