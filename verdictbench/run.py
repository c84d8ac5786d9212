"""Verdict benchmark for gtbasis.

One client in a closed loop asks the public CLI entry point
``gtbasis.cli.main``, invoked in-process through click's ``CliRunner``, for
a verdict on every partition of one workload, pass after pass for
``--seconds``, checks each verdict, and prints its metrics as one JSON
object on the last line of standard output:

    python3 verdictbench/run.py --workload relations --seed 1 --seconds 20 --trace 0

Run it from a gtbasis checkout; it imports ``src/gtbasis`` from there and
writes a result file (and, traced, the spans) to ``verdictbench-out/``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass over the same inputs.

``wall_s``, ``cpu_s`` and ``largest_s`` are scaled to one reference host
speed.  The shared host this runs on switches between speed phases every
few seconds to minutes, and in a slow phase the same verdict takes up to
1.6x as long.  A fixed calibration kernel of rational arithmetic and dict
updates, which uses no gtbasis code, slows down with it.  The kernel runs
before every verdict, and each verdict's mean time over the run is
multiplied by ``REFERENCE_CALIBRATION_S`` over the kernel's mean time in the
same run: seconds on a host where the kernel takes
``REFERENCE_CALIBRATION_S``.  The unscaled times are printed beside them and
kept in the result file.  ``setup_s`` is scaled the same way, by the
kernel's mean time in each set-up interpreter, run there after the set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "verdictbench-out")

# The partitions every pass of a workload asks for.  A run repeats the pass
# at least MIN_PASSES times and keeps each verdict's mean time.  Short
# verdicts repeated often sample the host's phases most evenly, so each
# workload takes one module per size class, the largest whose verdict takes
# under 2 s.  Left out for that reason:
# verify on n=4 large (4,1,0,0) and (4,2,1,0) (3-15 s), and monomials on
# (6,3,1,0) and (6,4,2,0) (3-7 s).  The seed never changes which
# partitions a pass holds: drawing them made a pass take from 6.5 s to 20 s
# depending on the seed.
WORKLOADS = {
    # gtbasis verify P, one per class (n=4 small, n=4 mid, n=5): dense
    # commutators in operators and scalars are ~96% of verify, and rank is
    # barely touched.
    "relations": ["3,1,0,0", "3,2,1,0", "2,1,1,1,0"],
    # gtbasis monomials P, one per class (n=3, 4, 5): basis_matrix
    # (apply_word -> act_lower -> replace) and rank of a full-rank
    # lower-triangular matrix; no commutator is built.
    "monomials": ["12,6,0", "5,3,2,0", "3,2,1,0,0"],
    # gtbasis monomials P --schedule alternate on n=3, every module of both
    # classes (dim <= 125, dim >= 154): rank of rank-deficient matrices with
    # duplicate words.  Every dim >= 154 module fails at the float
    # cross-check in rank; those failures are measured, not avoided.
    "alternate": ["6,3,0", "7,3,0", "8,4,0",
                  "9,3,0", "9,4,0", "10,5,0", "11,5,0", "12,6,0"],
}

MIN_PASSES = 3
SETUP_SAMPLES = 11
# Seconds the calibration kernel takes on the reference host: about what it
# takes on an idle 2-core Xeon VM with Python 3.11.
REFERENCE_CALIBRATION_S = 0.045

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "largest_s": "s",
              "peak_rss_mib": "MiB", "ok_share": "share"}

# Run in a fresh interpreter: import the CLI and finish one warm-up verdict,
# then time the calibration kernel in the same process.
SETUP_CHILD = r"""
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from click.testing import CliRunner
from gtbasis.cli import main
result = CliRunner().invoke(main, sys.argv[3:])
elapsed = time.perf_counter() - start
if result.exit_code != 0:
    sys.exit("warm-up verdict exited with %d" % result.exit_code)
sys.path.insert(0, sys.argv[2])
from run import calibrate
print(elapsed, calibrate())
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def draw_inputs(workload: str, seed: int) -> list[dict]:
    """The seed orders the partitions and shifts each by a constant.

    A uniform shift of every part gives the same module (gtbasis normalizes
    the last part to 0), so the library parses a seed-dependent partition
    while the work per pass stays the same for every seed.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    parts = list(WORKLOADS[workload])
    rng.shuffle(parts)
    inputs = []
    for p in parts:
        shift = rng.randrange(10)
        text = ",".join(str(int(m) + shift) for m in p.split(","))
        inputs.append({"partition": p, "input": text})
    return inputs


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel, to measure how fast the host is.

    Rational arithmetic and small-dict updates, like the work of a verdict:
    in slow host phases this kernel slows down by about as much as the
    verdicts do, where a plain integer loop slows down less.
    """
    start = perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(1, 6000):
        f = Fraction(i % 97, i) * Fraction(i % 7 + 1, 3) - Fraction(1, i % 5 + 1)
        acc[i % 50] = acc.get(i % 50, 0) + f
    return perf_counter() - start


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def setup_seconds(workload: str, command) -> list[dict]:
    """Import-plus-warm-up seconds, one sample per fresh interpreter, each
    with the calibration timed in that interpreter."""
    samples = []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, here, *command(workload, "2,1,0")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError("set-up interpreter failed: %s" % proc.stderr.strip())
        seconds, calibration = map(float, proc.stdout.split()[-2:])
        samples.append({"seconds": seconds, "calibration_s": calibration})
    return samples


def scaled_mean(samples: list[dict]) -> tuple[float, float]:
    """The samples' mean seconds, scaled by their mean calibration, and
    unscaled."""
    raw = statistics.fmean(r["seconds"] for r in samples)
    calibration = statistics.fmean(r["calibration_s"] for r in samples)
    return raw * REFERENCE_CALIBRATION_S / calibration, raw


def run_pass(runner, main, workload: str, inputs: list[dict], check, command):
    """One verdict per input, each timed after a calibration; returns a
    record per verdict."""
    records = []
    for item in inputs:
        gc.collect()
        calibration = calibrate()
        cpu0 = cpu_seconds()
        start = perf_counter()
        result = runner.invoke(main, command(workload, item["input"]))
        seconds = perf_counter() - start
        cpu = cpu_seconds() - cpu0
        status, detail = check(workload, item["input"], result.exit_code,
                               result.output, result.exception)
        records.append({
            "input": item["input"], "seconds": seconds, "cpu_s": cpu,
            "calibration_s": calibration,
            "status": status, "detail": detail,
            "output_bytes": len(result.stdout_bytes),
        })
    return records


def summarize(passes: list[list[dict]], largest: str) -> dict[str, float]:
    """Pass metrics from each verdict's mean time over the passes, scaled by
    the run's mean calibration; the unscaled ``raw_`` values are only
    printed and recorded."""
    records = [r for p in passes for r in p]
    factor = REFERENCE_CALIBRATION_S / statistics.fmean(
        r["calibration_s"] for r in records)

    def per_verdict(key: str) -> dict[str, float]:
        times: dict[str, list[float]] = {}
        for r in records:
            times.setdefault(r["input"], []).append(r[key])
        return {k: statistics.fmean(v) for k, v in times.items()}

    wall, cpu = per_verdict("seconds"), per_verdict("cpu_s")
    raw = {"raw_wall_s": sum(wall.values()), "raw_cpu_s": sum(cpu.values()),
           "raw_largest_s": wall[largest]}
    return {**raw, **{name[4:]: value * factor for name, value in raw.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gtbasis", "cli.py")):
        print("no gtbasis sources under %s" % SRC, file=sys.stderr)
        return 2
    # One client and no threads: keep numpy's BLAS from starting worker
    # threads for the float cross-check, here and in the set-up interpreters.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    from click.testing import CliRunner

    from checker import OK, WRONG, check, command
    from gtbasis.cli import main as gtbasis_main
    from gtbasis.patterns import Partition, dimension

    runner = CliRunner()

    def one_pass(items):
        return run_pass(runner, gtbasis_main, args.workload, items, check, command)

    host = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s_before": calibrate(),
    }
    inputs = draw_inputs(args.workload, args.seed)
    largest = max(inputs, key=lambda it: dimension(Partition.from_string(it["input"])))
    setup = [] if args.trace else setup_seconds(args.workload, command)
    warm = one_pass([{"input": "2,1,0"}])[0]
    if warm["status"] != OK:
        raise BenchError("warm-up verdict: %s" % warm["detail"])

    passes: list[list[dict]] = []
    if args.trace:
        from tracer import LAYER_MAP, PER_LAYER, Tracer

        passes.append(one_pass(inputs))
        tracer = Tracer()
        with tracer:
            passes.append(one_pass(inputs))
        untraced, traced = (sum(r["seconds"] for r in p) for p in passes)
        tracer.output_bytes = sum(r["output_bytes"] for r in passes[1])
        values = tracer.metrics(traced - untraced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            passes.append(one_pass(inputs))
            now = perf_counter()
            if (len(passes) >= MIN_PASSES
                    and now - start + (now - pass_start) > args.seconds):
                break
        values = summarize(passes, largest["input"])
        values["setup_s"], values["raw_setup_s"] = scaled_mean(setup)
        values["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END
    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["status"] != OK)
    if not args.trace:
        values["ok_share"] = (len(records) - failed) / len(records)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    host["calibration_s_after"] = calibrate()
    host["calibration_s_mean"] = statistics.fmean(
        r["calibration_s"] for r in [*setup, *records])

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    spans_path = None
    if args.trace:
        spans_path = stem + "-spans.jsonl"
        tracer.write_spans(spans_path)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": host, "inputs": inputs,
            "largest": largest["input"], "setup_samples": setup,
            "reference_calibration_s": REFERENCE_CALIBRATION_S,
            "raw": {k: v for k, v in values.items() if k.startswith("raw_")},
            "passes": passes, "metrics": metrics, "spans": spans_path,
        }, fh, indent=1)

    print("host: python %s, git %s, nproc %d, calibration %.4f s before, "
          "%.4f s after, %.4f s mean (reference %.4f s)"
          % (host["python"], host["git_sha"], host["nproc"],
             host["calibration_s_before"], host["calibration_s_after"],
             host["calibration_s_mean"], REFERENCE_CALIBRATION_S))
    print("inputs: %s" % " ".join(it["input"] for it in inputs))
    for line in dict.fromkeys("%s %s: %s" % (r["status"], r["input"], r["detail"])
                              for r in records if r["status"] != OK):
        print(line)
    print("verdicts: %d attempted, %d failed, failed_share %.4f"
          % (len(records), failed, failed / len(records)))
    for name, m in metrics.items():
        moves = "  (moves %s)" % LAYER_MAP[name] if args.trace else ""
        raw = values.get("raw_" + name)
        unscaled = "  (unscaled %.6g %s)" % (raw, m["unit"]) if raw is not None else ""
        print("%s %.6g %s%s%s" % (name, m["value"], m["unit"], unscaled, moves))
    print(json.dumps({
        "correct": not any(r["status"] == WRONG for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        sys.exit(1)
