"""pellucas benchmark: time one workload and print its metrics.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the library is imported from ``src/``.
Set-up is timed first, in fresh interpreters; the workload then runs in one
more fresh interpreter (``child.py``).  Every ``PELLUCAS_*`` variable is
removed from the environment of both, since the CLI reads them as defaults.
The last line of output is one JSON object; ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer ones (see README.md).
``--smoke`` runs every workload at reduced size in both modes and checks
that each metric named in BENCHMARK.json is printed and nothing failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("survey", "bigint_scale", "oracle_enum")
TIME_LIMIT_S = 170

# Set-up as every ``pellucas`` invocation pays it, timed inside the fresh
# interpreter: spawning one varies too much on a shared machine to count.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import pellucas, pellucas.cli
t1 = time.perf_counter()
pellucas.cli.build_parser()
print(time.perf_counter() - t0, t1 - t0)
"""
NUMPY_CODE = """\
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""
SETUP_RUNS = 15


def clean_env() -> dict:
    """No ``PELLUCAS_*`` defaults, ``src/`` on the path, one BLAS thread.

    One caller on a 2-core machine needs no BLAS thread pool; starting one
    while numpy is imported made set-up times scatter twice as widely.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PELLUCAS_")}
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def fresh(code: str, runs: int) -> list[list[float]]:
    """Output numbers of ``code`` in ``runs`` fresh interpreters, one warm-up."""
    out = []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=clean_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            out.append([float(x) for x in proc.stdout.split()])
    return out


def provenance(seed: int, load: float) -> dict:
    commit = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "pellucas").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_commit": commit,
            "source_sha256": source.hexdigest()[:16], "loadavg_1m": load}


def measure(workload: str, seed: int, seconds: float, trace: int,
            small: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    started = time.perf_counter()
    load = os.getloadavg()[0]
    runs = 2 if small else SETUP_RUNS
    setup = fresh(SETUP_CODE, runs)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if small:
        cmd.append("--small")
    limit = TIME_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                          capture_output=True, text=True, timeout=limit)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    prov = provenance(seed, load)
    prov["numpy"] = doc["numpy"]
    failed_ratio = doc["failed"] / doc["attempted"]
    if trace:
        metrics = dict(doc["layers"])
        metrics["cli.import_s"] = (median(s[1] for s in setup), "s")
        metrics["cli.numpy_import_s"] = (median(s[0] for s in fresh(
            NUMPY_CODE, runs)), "s")
    else:
        metrics = {
            "setup_s": (median(s[0] for s in setup), "s"),
            "ops_per_s": (doc["ops_per_s"], "1/s"),
            "latency_p50_ms": (doc["latency_p50_ms"], "ms"),
            "latency_p90_ms": (doc["latency_p90_ms"], "ms"),
            "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        }
    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"passes {doc['passes']}+{doc['traced_passes']} traced  "
             f"latency samples {doc['ops_per_pass']} (one per operation, "
             f"each its mean over the {doc['passes']} untraced passes)"]
    lines += [f"  {name:<48} {value:>16.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_ratio':<48} {failed_ratio:>16.6g} ratio "
                 f"({doc['failed']} of {doc['attempted']})")
    lines.append(f"digest {workload} seed {seed}: sha256:{doc['digest']}"
                 + ("" if doc["digests_agree"] else " (passes disagree)"))
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": doc["failed"] == 0 and doc["digests_agree"],
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def smoke() -> int:
    """Every workload, both modes, reduced size: names present, no failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    bad = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, lines = measure(workload, 1, 1, trace, small=True)
            print("\n".join(lines))
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                bad.append(f"{workload}/trace {trace}: metric names differ")
            if not result["correct"] or result["failed"]:
                bad.append(f"{workload}/trace {trace}: failed operations")
    print("smoke: " + ("; ".join(bad) if bad else "ok"))
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "pellucas" / "__init__.py").is_file():
        print(f"error: no pellucas sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
