"""Tests for the benchmark's own code: the verdict checker and the tracer."""

import json
import os
import sys

import numpy.linalg
from click.testing import CliRunner

import gtbasis
from gtbasis.cli import main
from gtbasis.operators import InternalConsistencyError
from gtbasis.patterns import Partition

from checker import ERROR, OK, WRONG, check, command
from run import (END_TO_END, REFERENCE_CALIBRATION_S, ROOT, WORKLOADS,
                 draw_inputs, summarize)
from tracer import LAYER_MAP, PER_LAYER, Tracer


def verdict(workload, partition):
    result = CliRunner().invoke(main, command(workload, partition))
    return result.exit_code, result.output, result.exception


def test_checker_accepts_correct_verdicts():
    for workload in WORKLOADS:
        assert check(workload, "2,1,0", *verdict(workload, "2,1,0")) == (OK, "")


def test_checker_rejects_wrong_rank_line():
    for workload in ("monomials", "alternate"):
        code, output, exc = verdict(workload, "2,1,0")
        rank_line = [l for l in output.splitlines() if l.startswith("rank: ")][0]
        bad = output.replace(rank_line, "rank: 6")
        status, detail = check(workload, "2,1,0", code, bad, exc)
        assert status == WRONG and "rank: 6" in detail
    # a verdict for another module than the one asked for
    assert check("relations", "3,2,1,0", *verdict("relations", "2,1,1,0"))[0] == WRONG


def test_checker_counts_raised_consistency_error_as_failure():
    status, detail = check("alternate", "9,3,0", 1, "",
                           InternalConsistencyError("exact rank 73 disagrees"))
    assert status == ERROR and detail.startswith("InternalConsistencyError")
    # (9,3,0) is the smallest alternate module the float cross-check rejects
    status, detail = check("alternate", "9,3,0", *verdict("alternate", "9,3,0"))
    assert status == ERROR and "InternalConsistencyError" in detail


def test_inputs_follow_the_seed_and_cover_every_partition():
    for workload, pool in WORKLOADS.items():
        a, b = draw_inputs(workload, 7), draw_inputs(workload, 7)
        assert a == b
        assert sorted(it["partition"] for it in a) == sorted(pool)
        for it in a:
            assert Partition.from_string(it["input"]) == Partition.from_string(it["partition"])
    assert draw_inputs("relations", 1) != draw_inputs("relations", 2)


def test_times_are_scaled_by_the_mean_calibration():
    def record(partition, seconds, calibration):
        return {"input": partition, "seconds": seconds, "cpu_s": seconds,
                "calibration_s": calibration}

    ref = REFERENCE_CALIBRATION_S
    passes = [[record("a", 1.0, ref), record("b", 3.0, ref)],
              [record("a", 2.0, 3 * ref), record("b", 5.0, 3 * ref)]]
    values = summarize(passes, "b")
    assert values["raw_wall_s"] == 5.5 and values["raw_largest_s"] == 4.0
    assert abs(values["wall_s"] - 5.5 / 2) < 1e-12
    assert abs(values["largest_s"] - 2.0) < 1e-12
    assert abs(values["cpu_s"] - values["wall_s"]) < 1e-12


def bindings():
    """Every attribute the tracer may patch, by identity."""
    owners = [m for name, m in sys.modules.items()
              if name == "gtbasis" or name.startswith("gtbasis.")]
    owners += [gtbasis.RadicalScalar, gtbasis.GTPattern, gtbasis.OperatorMatrix,
               numpy.linalg]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("callback", c): main.commands[c].callback for c in main.commands})
    return snap


def test_tracer_restores_every_patched_attribute():
    before = bindings()
    tracer = Tracer()
    with tracer:
        during = bindings()
        assert any(during[k] is not before[k] for k in before)
        assert verdict("relations", "2,1,0")[0] == 0
        assert verdict("monomials", "2,1,0")[0] == 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    values = tracer.metrics(0.0)
    assert list(values) == list(LAYER_MAP)
    assert values["operators.commutator_calls"] > 0
    assert values["monomials.float_check_s"] > 0
    assert values["scalars.sub_calls"] > 0
    assert all(s is not None for s in tracer.spans)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
