"""Benchmark of the entrogeo CLI: an eps sweep, a solve batch, a certificate suite.

Usage, from the repository root::

    python3 bench/run.py --workload density_sweep --seed 1 --seconds 20 --trace 0
    python3 -m pytest -q bench/test_bench.py   # self-tests of oracles and parsers

The workloads (``density_sweep``, ``circle_verify``; see ``workloads.py``)
run through the in-process CLI entry point ``entrogeo.cli.main`` on INI
files generated from ``--seed``.  A run repeats the workload's jobs in
passes until ``--seconds`` are spent, and at least the workload's
``min_passes`` times.  After each pass, outside the timed calls, the
outputs are checked against closed forms and against each other.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of the run's fastest pass, the CLI calls only.  Every
  pass does the same work, and on a shared host the machine runs for
  seconds at a time up to 1.7x slower; interference only adds time, so the
  fastest pass is the steadiest reading of what the work costs;
* ``setup_s``: median of several set-ups (import entrogeo, load the
  generated configs, which builds the endpoints), one in this process and
  the others in fresh interpreters (``setup_probe.py``);
* ``pass_ratio``: 1 - failed / attempted operations, where an operation is
  one solve, one certificate or one output check;
* ``oracle_rel_err``: worst relative error against a closed form;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` wraps the layer entry points (``spans.py``) and reports their
per-pass call counts and self times, plus ``trace.overhead_s``: traced
minus untraced ``wall_s``, the latter the median of the earlier untraced
runs of the workload logged in ``bench/out/runs.jsonl`` (a traced run with
no such record makes one untraced pass first).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when an output check
fails; a solve that does not converge or a certificate that fails counts
in ``failed`` only.  A manifest (versions, nproc, BLAS threads, seed,
drawn parameters, problem sizes, every outcome) goes to
``bench/out/<workload>-trace<0|1>.manifest.json``, the spans of a traced
run to ``bench/out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

WORKLOAD_NAMES = ("density_sweep", "circle_verify")
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2
PASS_BUDGET_S = 120.0  # no further pass starts once it would end past this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "pass_ratio": "ratio",
                    "oracle_rel_err": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "entrogeo").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def untraced_reference(workload: str):
    """Median ``wall_s`` of the logged untraced runs of ``workload``."""
    log = OUT / "runs.jsonl"
    if not log.is_file():
        return None
    walls = [r["wall_s"] for r in map(json.loads, log.read_text().splitlines())
             if r["workload"] == workload]
    return statistics.median(walls) if walls else None


def run_pass(cli, wl, p: int, root: Path, tracer=None):
    """Run every job of ``wl`` once through the CLI; returns the summed CLI
    time and ``(job, exit code, output dir, printed text)`` per job."""
    wall, results = 0.0, []
    for job in wl.jobs:
        out = root / f"p{p}" / job.name
        buf = io.StringIO()
        if tracer is not None:
            tracer.job = f"p{p}.{job.name}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(job.ini), "--output", str(out)])
        wall += time.perf_counter() - t0
        results.append((job, rc, out, buf.getvalue()))
    if tracer is not None:
        tracer.job = ""
    return wall, results


def check_pass(wl, p: int, root: Path, results) -> list:
    from workloads import Outcome, same_outputs

    outcomes = []
    for job, rc, out, text in results:
        try:
            outcomes += wl.check(job, rc, out, text)
            if p > 0:
                outcomes.append(Outcome("check", f"pass {p} {job.name} repeats pass 0 byte for byte",
                                        same_outputs(out, root / "p0" / job.name)))
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed outputs
            outcomes.append(Outcome("check", f"{job.name} outputs readable", False, repr(exc)))
    return outcomes + wl.pass_checks()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "entrogeo" / "__init__.py").is_file():
        print(f"error: no entrogeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import entrogeo.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "entrogeo").resolve():
        print(f"error: imported entrogeo from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import entrogeo
    from entrogeo.config import load_config

    import spans
    import workloads

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)

    configs = sorted({str(job.ini) for job in wl.jobs})
    t0 = time.perf_counter()
    for path in configs:
        load_config(path)
    setup_samples = [import_s + time.perf_counter() - t0]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run([sys.executable, str(PROBE), str(SRC), *configs],
                                   capture_output=True, text=True, timeout=120, check=True)
            setup_samples.append(float(probe.stdout.split()[-1]))

    outcomes, pass_walls = [], []

    def record(p, results):
        for outcome in check_pass(wl, p, work, results):
            outcomes.append(outcome)
            if not outcome.ok:
                print(f"FAIL {outcome.kind} {outcome.name}: {outcome.detail}")

    p = 0
    tracer = None
    reference = None
    if args.trace:
        reference = untraced_reference(args.workload)
        if reference is None:
            reference, results = run_pass(cli, wl, p, work)
            record(p, results)
            p += 1
        tracer = spans.Tracer()
        untraced = tracer.install(entrogeo)
        for target in untraced:
            print(f"note: {target} not found, its layer reads 0")
    first = p
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if p - first >= wl.min_passes and (
                elapsed >= args.seconds or elapsed + 1.2 * pass_walls[-1] > PASS_BUDGET_S):
            break
        wall, results = run_pass(cli, wl, p, work, tracer)
        pass_walls.append(wall)
        record(p, results)
        p += 1
    if tracer is not None:
        tracer.uninstall()

    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    correct = all(o.ok for o in outcomes if o.kind == "check")
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "src_sha256": src_digest(SRC),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "params": wl.params, "sizes": wl.sizes,
        "passes": len(pass_walls), "pass_wall_s": pass_walls,
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        solves = spans.solve_records(tracer.spans)
        for s in solves:
            if not s["converged"]:
                print(f"solve {s['job']} eps={s['eps']:g} not converged: stationarity "
                      f"{s['stationarity']:.4e}, {s['iterations']} iterations, "
                      f"{s['evaluations']} evaluations")
        metrics = spans.layer_metrics(tracer.spans, len(pass_walls))
        metrics["trace.wall_s"] = min(pass_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference
        manifest["untraced_reference_wall_s"] = reference
        manifest["untraced_targets"] = untraced
        manifest["solves"] = solves
        tracer.write_csv(OUT / f"{args.workload}.spans.csv")
        units = {name: layer_unit(name) for name in metrics}
    else:
        oracle = [o.oracle_err for o in outcomes if o.oracle_err is not None]
        metrics = {
            "wall_s": min(pass_walls),
            "setup_s": statistics.median(setup_samples),
            "pass_ratio": 1.0 - failed / attempted,
            "oracle_rel_err": max(oracle, default=1.0),  # 1.0 when no oracle output was readable
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        with open(OUT / "runs.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "wall_s": metrics["wall_s"]}) + "\n")
    manifest["metrics"] = metrics
    manifest["outcomes"] = [dataclasses.asdict(o) for o in outcomes]
    (OUT / f"{args.workload}-trace{args.trace}.manifest.json").write_text(
        json.dumps(manifest, indent=1, default=str) + "\n")

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
