"""Tests of the benchmark itself (not of quandlekit).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import client  # noqa: E402
import plan  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from verify import Checker, recorded_summary  # noqa: E402


def _load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


CLASSES = _load("classes.json")
GOLDEN = _load("golden.json")


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = plan.make_round(workload, 7, 0, "w", CLASSES)
    again = plan.make_round(workload, 7, 0, "w", CLASSES)
    other = plan.make_round(workload, 8, 0, "w", CLASSES)
    assert [q["argv"] for q in first[0]] == [q["argv"] for q in again[0]]
    assert first[1] == again[1]
    assert first[1] != other[1]
    assert [q["check"] for q in first[0]] == [q["check"] for q in other[0]]


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_queries_in_a_round_are_distinct(workload):
    queries, files = plan.make_round(workload, 3, 1, "w", CLASSES)
    work = [tuple(files.get(a, a) for a in q["argv"]) for q in queries]
    assert len(set(work)) == len(work)


def test_every_keyed_query_has_a_recorded_result():
    drawable = {" ".join(argv) for family in plan.RECORDED.values() for argv in family}
    assert drawable == set(GOLDEN)
    for workload in plan.WORKLOADS:
        for seed in range(5):
            queries, _ = plan.make_round(workload, seed, 0, "w", CLASSES)
            keys = [q["key"] for q in queries if q["key"] is not None]
            assert keys and all(key in GOLDEN for key in keys)


def test_recorded_answers_are_label_free():
    for key, summary in GOLDEN.items():
        assert "generators" not in summary and "representatives" not in summary, key


def test_classes_in_another_order_and_labeling_pass():
    rng = random.Random(5)
    tables = [ref.relabel(t, rng.sample(range(5), 5)) for t in CLASSES["5"]]
    rng.shuffle(tables)
    assert Checker._check_classes(5, {"count": 22, "tables": tables}) is None
    tables[3] = tables[4]
    assert Checker._check_classes(5, {"count": 22, "tables": tables}) is not None


def test_percentile_moves_smoothly_across_a_gap():
    below, above = [10.0] * 31 + [20.0] * 33, [10.0] * 33 + [20.0] * 31
    assert 10 < run.percentile(above, 50) < run.percentile(below, 50) < 20
    assert run.percentile(below, 50) - run.percentile(above, 50) < 3
    assert run.percentile([4.0, 1.0, 3.0, 2.0, 5.0], 50) == pytest.approx(3.0)


def test_speed_probe_samples_within_a_span_and_keeps_its_own_time_apart():
    probe = client.SpeedProbe(client.PROBE_INTERVAL_S)
    with probe.span() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.15:
            client._probe_work()
    assert len(probe.samples) >= 4  # before, after and from the timer
    assert 0 < speed["handler_s"] < 0.15
    assert speed["probe_s"] == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert run.at_reference_speed(2.0, 2 * run.PROBE_REF_S) == pytest.approx(1.0)


def test_reference_closed_forms():
    assert ref.count_isomorphisms(ref.trivial_table(5), ref.trivial_table(5)) == 120
    facts = ref.facts(ref.dihedral_table(7))
    assert (facts["aut_order"], facts["inn_order"]) == (42, 14)
    assert ref.trivial_h2_factors(3, [2, 3]) == [6] * 6
    assert len(ref.conj_table("Q8")) == 8 and ref.is_quandle(ref.core_table("D4"))


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_inn_records_a_closure_span(traced):
    from quandlekit import quandle

    quandle.inn(quandle.build("dihedral", 5))
    names = {span[1]: i for i, span in enumerate(traced.spans)}
    assert "perm.closure" in names
    parent = traced.spans[names["perm.closure"]][0]
    assert traced.spans[parent][1] == "quandle.inn"


def test_self_times_fit_in_traced_wall(traced):
    from quandlekit import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["invariants", "--dihedral", "5"]) == 0
    wall = time.perf_counter() - start
    own = tracer.self_times(traced.spans)
    assert traced.spans and min(own) >= -1e-9
    assert sum(own) <= wall
    summary = tracer.summarize(traced.dump())
    assert summary["cli.run.calls"] == 1 and summary["perm.new.count"] > 0


def test_uninstall_restores_bindings():
    from quandlekit import cocycle, envgroup

    before = envgroup.smith_normal_form
    t = tracer.Tracer()
    t.install()
    assert cocycle.smith_normal_form is not before
    t.uninstall()
    assert cocycle.smith_normal_form is before and envgroup.smith_normal_form is before


def _tiny_round(workload, seed, index, workdir, classes):
    queries = [{"argv": ["enumerate", str(n)], "check": "enumerate", "key": None, "n": n}
               for n in (3, 4)]
    return queries, {}


def test_wrong_oracle_value_fails_the_run(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(plan, "make_round", _tiny_round)
    good, bad = run.Bench("classify", 0), run.Bench("classify", 1)
    try:
        good.round(0)
        monkeypatch.setitem(ref.CLASS_COUNTS, 4, 8)
        bad.round(0)
    finally:
        good.cleanup()
        bad.cleanup()
    assert good.attempted == 2 and not good.failures
    assert len(bad.failures) / bad.attempted > 0


def test_checker_rejects_a_wrong_witness():
    checker = Checker(GOLDEN, CLASSES)
    t = ref.dihedral_table(5)
    query = {"argv": [], "check": "iso", "key": None, "table1": t, "table2": t}
    report = {"results": {"isomorphic": True, "witness": [1, 0, 2, 3, 4]}}
    assert checker.check(query, 0, json.dumps(report)) is not None
    report["results"]["witness"] = [0, 1, 2, 3, 4]
    assert checker.check(query, 0, json.dumps(report)) is None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
