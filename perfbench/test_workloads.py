"""Fast checks of the benchmark's own reference code (no minvec import).

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _shipped(name):
    root = Path(__file__).resolve().parents[1]
    return json.loads((root / "data" / name).read_text())


def test_reference_counts_sl2_with_unit_entries():
    # 20 matrices in SL_2(Z) have entries in {-1, 0, 1}; cf = 0 keeps all
    assert workloads.reference_count(_shipped("query_m1_shallow.json")) == 20
    # only the identity is congruent to 1 mod 27 with |entries| <= 1
    assert workloads.reference_count(_shipped("query_m1_deep.json")) == 1


def test_reference_count_split_torus_by_hand():
    q = {"n": 2, "m": 2, "entry_bound": 2, "p": 3, "c": 1,
         "torus_generators": [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]}
    # diagonal mod 3 forces the off-diagonal entries to 0, so a d = 2 with
    # a, d in {+-1, +-2}: (1,2), (2,1), (-1,-2), (-2,-1)
    assert workloads.reference_count(q) == 4


def test_torus_closure_is_the_generated_group():
    assert len(workloads.torus_closure([[[4, 0], [0, 1]]], 27, 2)) == 9
    assert len(workloads.torus_closure(
        [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], 9, 2)) == 36


def test_generated_queries_follow_the_seed_and_constraints():
    first = workloads.generate_queries(7)
    assert first == workloads.generate_queries(7)
    assert first != workloads.generate_queries(8)
    for fname, n, bound in workloads.GENERATED:
        q = first[fname]
        assert (q["n"], q["entry_bound"]) == (n, bound)
        assert q["c"] <= 2 and math.gcd(q["m"], q["p"]) == 1 and q["m"]
        for g in q["torus_generators"]:
            assert workloads._batch_det(np.array([g]))[0] % q["p"] != 0


def test_parse_reports_keeps_raw_block_text():
    text = ("minvec report: count\n|S| = 0\n\n"
            f"{workloads.BLOCK_BEGIN}\n{{\n  \"count\": 0\n}}\n"
            f"{workloads.BLOCK_END}\n\n"
            "verify datum_x.json: not applicable (datum is not minimal)\n")
    (rep,) = workloads.parse_reports(text)
    assert rep["title"] == "count" and rep["block"] == {"count": 0}
    assert rep["block_text"] == "{\n  \"count\": 0\n}"
    assert workloads.not_applicable(text) == {"datum_x.json"}


def test_benchmark_json_names_what_run_reports():
    import run
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    reported = {name: unit for name, (_, unit) in
                run.layer_metrics(run.Trace([], {})).items()}
    reported.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
