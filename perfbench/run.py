"""mdflow benchmark: one workload, measured for a fixed time, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mdflow is imported from ./src,
nothing is built.  Each repetition of the workload runs in a fresh
process (perfbench/worker.py), so its peak RSS belongs to that
repetition alone.  Repetitions start while fewer than S seconds have
passed; every end-to-end metric is the median over them.  setup_s also
takes samples from set-up-only processes, so it is a median over at
least SETUP_SAMPLES processes.

--trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
The full record (run metadata, every repetition, the span dump) goes
to perfbench/results/<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402  (both import only the stdlib)
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
RUN_LIMIT_S = 160  # start no repetition expected to end later than this

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
    "err_pD": "1",
    "pass_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The parent environment with BLAS and OpenMP threads capped at nproc."""
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_worker(args, root, workdir, traced=False, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--root", root, "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def git_sha(root: str):
    """HEAD's commit from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(root: str) -> int:
    """wc -l src/mdflow/*.py; informational, never gated."""
    src = os.path.join(root, "src", "mdflow")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def finite_median(values):
    """Median of the finite values; None when a failed study left none."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else None


def summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(args, root, workdir):
    """Repetitions until --seconds have passed; then set-up-only samples."""
    t0 = time.perf_counter()
    plain, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - t0
        if plain and (elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S):
            break
        start = time.perf_counter()
        plain.append(run_worker(args, root, workdir))
        if args.trace:
            traced.append(run_worker(args, root, workdir, traced=True))
        longest = max(longest, time.perf_counter() - start)
    setup = [r["setup_s"] for r in plain]
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(run_worker(args, root, workdir, setup_only=True)["setup_s"])
    return plain, traced, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "mdflow", "__init__.py")):
        print(f"no mdflow sources under {root}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)

    try:
        plain, traced, setup = measure(args, root, results)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    ops = [op for r in reps for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    problems = [p for r in reps for p in r["problems"]]
    fingerprints = {r["fingerprint"] for r in reps}
    if len(fingerprints) > 1:
        problems.append(f"results differ between repetitions: {sorted(fingerprints)}")
    correct = not problems

    study = [r["study_s"] for r in plain]
    if args.trace:
        layer_names = list(traced[0]["layers"])
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in layer_names
        }
        values["trace.overhead_s"] = (
            statistics.median(r["study_s"] for r in traced) - statistics.median(study)
        )
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "study_s": statistics.median(study),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "err_pD": finite_median([r["err_pD"] for r in plain]),
            "pass_ratio": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "versions": plain[0]["versions"],
        "nproc": nproc(),
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
        "src_mdflow_lines": source_lines(root),
        "spec_sha256": plain[0]["spec_sha256"],
        "summary": {
            "setup_s": summary(setup),
            "study_s": summary(study),
            **({"traced_study_s": summary([r["study_s"] for r in traced])}
               if traced else {}),
        },
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "repetitions": plain,
        "traced_repetitions": traced,
    }
    path = os.path.join(results, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for p in problems:
        print(f"problem: {p.strip().splitlines()[-1]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"{len(plain)} repetitions, {len(setup)} set-up samples; record in {path}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
