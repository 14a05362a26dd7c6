"""End-to-end checks of the command-line interface.

Runs the CLI in process through cli.run and inspects the printed report,
the exit code, and the stability of the digests.
"""

import argparse
import collections
import contextlib
import hashlib
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import cli, cocycle, construct, envgroup, fingroup, quandle, theorems
from quandlekit.errors import ParseError
from quandlekit.perm import Perm


def invoke(argv, capsys, internal_error=False):
    """Run the CLI in process; unless told otherwise, a fault of quandlekit fails the test."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert internal_error or "internal error" not in captured.err, captured.err
    return code, captured


def report_of(argv, capsys):
    code, captured = invoke(argv, capsys)
    assert captured.out, captured.err
    return code, json.loads(captured.out)


@pytest.fixture()
def r3_file(tmp_path):
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(quandle.build("dihedral", 3).to_json()))
    return str(path)


def test_invariants_dihedral_five(capsys):
    code, report = report_of(["invariants", "--dihedral", "5"], capsys)
    assert code == 0
    results = report["results"]
    assert results["aut_order"] == 20
    assert results["inn_order"] == 10
    assert results["connected"] is True
    assert results["qinn_order"] == 20
    assert results["orbits"] == [[0, 1, 2, 3, 4]]


def test_report_shape_and_digest_stability(capsys):
    _, first = report_of(["invariants", "--dihedral", "5"], capsys)
    _, second = report_of(["invariants", "--dihedral", "5"], capsys)
    for key in ("command", "input_digest", "results", "checks", "passed",
                "report_digest", "timing_ms"):
        assert key in first
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_timing_excluded_from_digest(capsys):
    _, report = report_of(["invariants", "--trivial", "3"], capsys)
    import hashlib

    claimed = report.pop("report_digest")
    report.pop("timing_ms")
    recomputed = hashlib.sha256(
        json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert claimed == recomputed


def test_stdout_is_the_canonical_json_its_digest_covers(capsys):
    """One line of sorted, unspaced JSON; without the digest and timing it hashes to the digest."""
    code, captured = invoke(["h2", "--trivial", "2", "--coeff", "Z2"], capsys)
    assert code == 0
    report = json.loads(captured.out)
    assert captured.out == cli._canonical(report).decode() + "\n"
    claimed = report.pop("report_digest")
    report.pop("timing_ms")
    assert hashlib.sha256(cli._canonical(report)).hexdigest() == claimed


def test_build_sources(capsys):
    _, report = report_of(["build", "--trivial", "3"], capsys)
    assert report["results"]["table"] == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]

    _, report = report_of(["build", "--dihedral", "3"], capsys)
    assert report["results"]["kind"] == "quandle"

    _, report = report_of(["build", "--conj", "S3"], capsys)
    assert len(report["results"]["table"]) == 6

    _, report = report_of(["build", "--conj", "S3", "--power", "2"], capsys)
    assert len(report["results"]["table"]) == 6

    _, report = report_of(["build", "--core", "Z4"], capsys)
    assert len(report["results"]["table"]) == 4


def test_huge_power_is_reduced_modulo_element_orders(capsys):
    # 10**11 = 4 mod 6, the exponent of S3
    code, huge = report_of(["build", "--conj", "S3", "--power", "100000000000"], capsys)
    assert code == 0
    _, four = report_of(["build", "--conj", "S3", "--power", "4"], capsys)
    assert huge["results"]["table"] == four["results"]["table"]


def test_build_alexander(tmp_path, capsys):
    autfile = tmp_path / "phi.json"
    autfile.write_text("[0, 2, 1]")
    code, report = report_of(
        ["build", "--alexander", "Z3", str(autfile)], capsys
    )
    assert code == 0
    q = quandle.Quandle.from_json(report["results"])
    assert q.order == 3


def test_build_from_file_roundtrip(r3_file, capsys):
    _, report = report_of(["build", "--file", r3_file], capsys)
    assert report["results"] == quandle.build("dihedral", 3).to_json()


_SMALL_CLASSES = [q for n in range(1, 5) for q in quandle.enumerate_quandles(n)]


@st.composite
def _relabeled_quandles(draw, involutory=False):
    classes = [q for q in _SMALL_CLASSES if quandle.is_involutory(q) or not involutory]
    table = draw(st.sampled_from(classes)).table
    n = len(table)
    sigma = draw(st.permutations(range(n)))
    relabeled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabeled[sigma[x]][sigma[y]] = sigma[table[x][y]]
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n))
    return quandle.Quandle.from_table(relabeled, labels=labels)


def _union_spec_like_involutory_double(q):
    cols = [Perm(tuple(q.table[z][x] for z in range(q.order))) for x in range(q.order)]
    return construct.make_union_spec(q, q, cols, cols)


_DOCUMENTS = {
    "quandle": _relabeled_quandles(),
    "constant_cocycle": st.sampled_from([
        alpha
        for base in (quandle.build("dihedral", 3), quandle.build("trivial", 2))
        for s in (2, 3)
        for alpha in cocycle.all_constant_cocycles(base, s)
    ]),
    "abelian_cocycle": st.sampled_from([
        rep
        for base, moduli in [(quandle.build("trivial", 2), (2, 4)),
                             (quandle.build("dihedral", 4), (2,)),
                             (quandle.build("trivial", 3), (3,))]
        for rep in cocycle.compute_h2(base, moduli)[1]
    ]),
    "union_spec": _relabeled_quandles(involutory=True).map(_union_spec_like_involutory_double),
}


def test_round_trips_cover_every_document_kind():
    assert set(_DOCUMENTS) == set(cli._FILE_READERS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DOCUMENTS)).flatmap(lambda kind: _DOCUMENTS[kind]))
def test_every_document_kind_round_trips_through_its_reader(x):
    doc = json.loads(json.dumps(x.to_json()))
    back = cli._FILE_READERS[doc["kind"]](doc)
    assert back == x
    assert back.to_json() == doc


def test_iso_exit_codes(r3_file, tmp_path, capsys):
    other = tmp_path / "t3.json"
    other.write_text(json.dumps(quandle.build("trivial", 3).to_json()))

    code, report = report_of(["iso", r3_file, r3_file], capsys)
    assert code == 0
    assert report["results"]["isomorphic"] is True
    assert report["checks"] == {"isomorphic": True}
    witness = report["results"]["witness"]
    assert sorted(witness) == [0, 1, 2]

    code, report = report_of(["iso", r3_file, str(other)], capsys)
    assert code == 1
    assert report["passed"] is False
    assert report["results"]["witness"] is None


def test_enumerate_four(capsys):
    code, report = report_of(["enumerate", "4"], capsys)
    assert code == 0
    assert report["results"]["count"] == 7
    tables = report["results"]["tables"]
    assert len(tables) == 7
    for table in tables:
        quandle.Quandle.from_table(table)


def test_enumerate_respects_cap(capsys):
    code, captured = invoke(["enumerate", "7"], capsys)
    assert code == 2
    assert "error" in captured.err

    code, _ = invoke(["enumerate", "3", "--cap-order", "3"], capsys)
    assert code == 0


def test_group_reports(capsys):
    _, report = report_of(["aut", "--dihedral", "4"], capsys)
    assert report["results"]["order"] == 8
    assert report["results"]["degree"] == 4
    for images in report["results"]["generators"]:
        assert sorted(images) == [0, 1, 2, 3]

    _, report = report_of(["inn", "--dihedral", "4"], capsys)
    assert report["results"]["order"] == 4

    _, report = report_of(["qinn", "--dihedral", "4"], capsys)
    assert report["results"]["order"] == 4


def test_envelope_abelianization(capsys):
    _, report = report_of(
        ["envelope", "--dihedral", "3", "--abelianization"], capsys
    )
    results = report["results"]
    assert results["free_rank"] == 1
    assert results["torsion"] == []
    assert results["generators"] == 3


def test_envelope_coset_enumeration(capsys):
    code, report = report_of(
        ["envelope", "--dihedral", "3", "--coset-enum", "[[1, 1]]",
         "--max-cosets", "500"],
        capsys,
    )
    assert code == 0
    assert report["results"]["index"] == 6


def test_envelope_coset_enum_needs_max_cosets(capsys):
    code, captured = invoke(
        ["envelope", "--dihedral", "3", "--coset-enum", "[[1, 1]]"], capsys
    )
    assert code == 2
    assert "--max-cosets" in captured.err


def test_envelope_abelianization_refuses_max_cosets(capsys):
    code, captured = invoke(
        ["envelope", "--dihedral", "3", "--abelianization", "--max-cosets", "5"], capsys
    )
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "quandlekit: error: --max-cosets only applies with --coset-enum"


def test_extend_constant_cocycle(tmp_path, capsys):
    alpha = cocycle.trivial_cocycle(quandle.build("trivial", 2), 3)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha.to_json()))
    code, report = report_of(["extend", str(path)], capsys)
    assert code == 0
    assert report["results"]["base_order"] == 2
    assert report["results"]["fiber"] == 3
    ext = quandle.Quandle.from_json(report["results"]["extension"])
    assert ext.order == 6


def test_extend_abelian_cocycle(tmp_path, capsys):
    mu = cocycle.validate_abelian(quandle.build("dihedral", 3), (2,), [[(0,)] * 3] * 3)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu.to_json()))
    code, report = report_of(["extend", str(path)], capsys)
    assert code == 0
    assert report["results"]["fiber"] == 2
    assert len(report["results"]["extension"]["table"]) == 6


def test_h2_trivial_two(capsys):
    code, report = report_of(["h2", "--trivial", "2", "--coeff", "Z2"], capsys)
    assert code == 0
    assert report["results"]["invariant_factors"] == [2, 2]
    assert len(report["results"]["representatives"]) == 2


def test_h2_over_the_square_of_a_large_prime(capsys):
    # (10**9 + 7)**2 has no prime factor below 10**9, so trial division cannot factor it
    m = (10**9 + 7) ** 2
    code, report = report_of(["h2", "--trivial", "2", "--coeff", f"Z{m}"], capsys)
    assert code == 0
    assert report["results"]["invariant_factors"] == [m, m]


def test_h2_bad_coefficient_spec(capsys):
    code, captured = invoke(["h2", "--trivial", "2", "--coeff", "Q8"], capsys)
    assert code == 2
    assert "coefficient" in captured.err


def test_union_from_file(tmp_path, capsys):
    spec = construct.make_union_spec(
        quandle.build("trivial", 2),
        quandle.build("trivial", 1),
        [Perm((0,)), Perm((0,))],
        [Perm((1, 0))],
    )
    path = tmp_path / "union.json"
    path.write_text(json.dumps(spec.to_json()))
    code, report = report_of(["union", str(path)], capsys)
    assert code == 0
    assert report["results"]["table"] == [[0, 0, 1], [1, 1, 0], [2, 2, 2]]


def test_theorem_suite_passes(capsys):
    code, report = report_of(["theorem", "4.6", "--max-order", "8"], capsys)
    assert code == 0
    assert report["passed"] is True
    assert report["results"]["id"] == "4.6"
    assert report["checks"] == {"passed": True}


def test_theorem_empty_sweep_exits_two(capsys):
    code, captured = invoke(["theorem", "4.6", "--max-order", "-3"], capsys)
    assert code == 2
    assert captured.out == ""
    assert "suite 4.6" in captured.err
    assert "'max_order': -3" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("max_order", ["1", "-5"])
def test_compatible_maps_suite_without_catalog_groups_exits_two(capsys, max_order):
    # suite 9.1 adds a fixed Z3 case to its sweep, so run_suite sees a case
    code, captured = invoke(["theorem", "9.1", "--max-order", max_order], capsys)
    assert code == 2
    assert captured.out == ""
    assert f"suite 9.1 has no catalog group with max_order {max_order}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "7"], ["aut", "--trivial", "9"], ["qinn", "--trivial", "9"],
     ["invariants", "--trivial", "9"], ["h2", "--trivial", "9", "--coeff", "Z2"]],
    ids=["enumerate", "aut", "qinn", "invariants", "h2"],
)
def test_cap_errors_name_the_flag(capsys, argv):
    code, captured = invoke(argv, capsys)
    assert code == 2
    assert "exceeds" in captured.err
    assert "--cap-order" in captured.err


@pytest.mark.parametrize(
    "argv, order",
    [(["5.5", "--max-order", "5"], 256), (["5.7", "--max-order", "400"], 202),
     (["8.3", "--max-order", "301"], 201), (["5.4", "--max-order", "202"], 202)],
    ids=["5.5", "5.7", "8.3", "5.4"],
)
def test_suite_sweeps_are_capped_before_building(capsys, monkeypatch, argv, order):
    def refuse(*args, **kwargs):
        raise AssertionError("a quandle or group was built")

    monkeypatch.setattr(quandle, "build", refuse)
    monkeypatch.setattr(fingroup, "make_group", refuse)
    code, captured = invoke(["theorem", *argv], capsys)
    assert code == 2
    assert captured.out == ""
    assert f"quandle order {order} exceeds the construction cap 200" in captured.err
    assert captured.err.rstrip().endswith("(raise it with --cap-group)")


@pytest.mark.parametrize(
    "argv, message, flag",
    [(["theorem", "4.4", "--cap-order", "5"], "order 6 exceeds automorphism cap 5",
      "--cap-order"),
     (["theorem", "5.1", "--max-order", "30", "--cap-group", "10"],
      "group order 12 exceeds cap 10", "--cap-group"),
     (["theorem", "5.2", "--cap-order", "5"], "order 7 exceeds automorphism cap 5",
      "--cap-order"),
     (["theorem", "5.2", "--cap-order", "-1"], "order 3 exceeds automorphism cap -1",
      "--cap-order"),
     (["theorem", "5.4", "--max-order", "12", "--cap-group", "10"],
      "quandle order 12 exceeds the construction cap 10", "--cap-group"),
     (["theorem", "3.1", "--cap-order", "5"], "coset enumeration exceeded the cap of 5 live"
      " cosets, which does not prove the index infinite (raise it with --cap-order)",
      "--cap-order"),
     (["theorem", "3.1", "--cap-order", "0"],
      "coset cap 0 is below the floor of 1 (raise it with --cap-order)", "--cap-order"),
     (["theorem", "3.3", "--max-order", "7"], "order 7 exceeds enumeration cap 6",
      "--cap-order"),
     (["theorem", "8.2", "--max-order", "4", "--cap-order", "3"],
      "order 4 exceeds enumeration cap 3", "--cap-order"),
     (["envelope", "--dihedral", "3", "--coset-enum", "[[1,1]]", "--max-cosets", "2"],
      "exceeded the cap of 2 live cosets", "--max-cosets"),
     (["envelope", "--dihedral", "3", "--coset-enum", "[[1,1]]", "--max-cosets", "0"],
      "coset cap 0 is below the floor of 1", "--max-cosets")],
    ids=["4.4", "5.1", "5.2", "5.2-negative", "5.4", "3.1", "3.1-floor", "3.3", "8.2", "envelope",
         "envelope-floor"],
)
def test_suite_cap_errors_end_with_their_flag(capsys, argv, message, flag):
    code, captured = invoke(argv, capsys)
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.rstrip().endswith(f"(raise it with {flag})")


def test_suite_cap_is_raised_by_cap_group(capsys):
    code, captured = invoke(["theorem", "5.5", "--max-order", "3", "--cap-group", "63"], capsys)
    assert code == 2
    assert "quandle order 64 exceeds the construction cap 63" in captured.err
    code, raised = report_of(["theorem", "5.5", "--max-order", "3", "--cap-group", "64"], capsys)
    assert code == 0
    _, default = report_of(["theorem", "5.5", "--max-order", "3"], capsys)
    assert raised["results"] == default["results"]


def test_reflection_sweep_passes_cap_group_to_the_report(capsys, monkeypatch):
    caps = []
    real = theorems._reflection_case

    def recording(components, cap):
        caps.append(cap)
        return real(components, cap)

    monkeypatch.setattr(theorems, "_reflection_case", recording)
    code, raised = report_of(["theorem", "5.4", "--cap-group", "150"], capsys)
    assert code == 0
    assert caps == [150, 150, 150]
    caps.clear()
    _, default = report_of(["theorem", "5.4"], capsys)
    assert caps == [200, 200, 200]
    assert raised["results"] == default["results"]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_stabilizer_suite_rejects_a_cocycle_cap_below_one(capsys, cap):
    code, captured = invoke(["theorem", "7.3", "--cap-order", cap], capsys)
    assert code == 2
    assert captured.out == ""
    assert f"--cap-order {cap} is below the floor of 1 cocycle" in captured.err


@pytest.mark.parametrize("cap", ["3", "0"])
def test_three_transitive_suite_rejects_an_inner_cap_below_four(capsys, cap):
    # below order 4 the inner-group sweep has no case, and its claim would pass vacuously
    code, captured = invoke(["theorem", "6.3", "--cap-order", cap], capsys)
    assert code == 2
    assert captured.out == ""
    assert f"--cap-order {cap} is below the floor of order 4" in captured.err


@pytest.mark.parametrize(
    "argv, flags",
    [(["5.6", "--trials", "3"], "--trials"),
     (["3.1", "--seed", "4", "--max-order", "2"], "--max-order, --seed"),
     (["7.3", "--max-order", "5"], "--max-order"),
     (["4.6", "--trials", "2", "--seed", "1"], "--seed, --trials")],
    ids=["5.6", "3.1", "7.3", "4.6"],
)
def test_theorem_refuses_a_flag_its_suite_does_not_take(capsys, argv, flags):
    code, captured = invoke(["theorem", *argv], capsys)
    assert code == 2
    assert captured.out == ""
    assert f"suite {argv[0]} does not take {flags}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["5.6", "--cap-order", "100"], ["7.1", "--cap-group", "200", "--trials", "2"]],
    ids=["5.6-cap-order", "7.1-cap-group"],
)
def test_theorem_takes_the_caps_on_every_suite(capsys, argv):
    assert invoke(["theorem", *argv], capsys)[0] == 0


def test_theorem_unknown_id(capsys):
    code, captured = invoke(["theorem", "99.9"], capsys)
    assert code == 2
    assert "99.9" in captured.err


def test_theorem_reports_are_reproducible(capsys):
    _, first = report_of(["theorem", "7.1", "--trials", "20"], capsys)
    _, second = report_of(["theorem", "7.1", "--trials", "20"], capsys)
    assert first["results"] == second["results"]
    assert first["report_digest"] == second["report_digest"]


@pytest.mark.parametrize("suite", ["7.1", "9.2"])
def test_randomized_suites_reject_a_trial_count_below_one(capsys, suite):
    code, captured = invoke(["theorem", suite, "--trials", "0"], capsys)
    assert code == 2
    assert "--trials 0 is below the floor of 1 trial" in captured.err


def test_cohomologous_extensions_pass_on_fewer_than_100_trials(capsys):
    code, report = report_of(["theorem", "7.1", "--trials", "99"], capsys)
    assert code == 0
    assert report["results"]["passed"]


def test_aut_of_a_trivial_quandle_of_order_16(capsys):
    code, report = report_of(["aut", "--trivial", "16", "--cap-order", "16"], capsys)
    assert code == 0
    assert report["results"]["order"] == 20922789888000
    assert len(report["results"]["generators"]) == 15


def test_usage_errors_exit_two(capsys):
    cases = [
        [],
        ["frobnicate"],
        ["build"],
        ["build", "--trivial", "2", "--dihedral", "3"],
        ["build", "--trivial", "2", "--power", "2"],
        ["invariants", "--conj", "FROB"],
    ]
    for argv in cases:
        code, captured = invoke(argv, capsys)
        assert code == 2, argv
        assert captured.err, argv


def test_file_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, captured = invoke(["build", "--file", missing], capsys)
    assert code == 2
    assert "cannot read" in captured.err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, captured = invoke(["build", "--file", str(bad)], capsys)
    assert code == 2
    assert "not valid JSON" in captured.err

    nokind = tmp_path / "nokind.json"
    nokind.write_text(json.dumps({"table": [[0]]}))
    code, captured = invoke(["build", "--file", str(nokind)], capsys)
    assert code == 2
    assert "kind" in captured.err

    array = tmp_path / "arr.json"
    array.write_text(json.dumps([1, 2]))
    code, captured = invoke(["build", "--file", str(array)], capsys)
    assert code == 2
    assert "expected a JSON object" in captured.err


@pytest.mark.parametrize(
    "table",
    [[[0, "a"], [1, 1]], [[0, False], [True, 1]], [[0, 1.0], [1, 1]], [[0, 1], 5]],
    ids=["string", "booleans", "float", "row-not-array"],
)
def test_file_table_entries_must_be_integers(tmp_path, capsys, table):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"kind": "quandle", "order": 2, "table": table}))
    code, captured = invoke(["build", "--file", str(path)], capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("quandlekit: error:")


@pytest.mark.parametrize("order", [True, 1.0, "1"], ids=["boolean", "float", "string"])
def test_file_order_must_be_an_integer(tmp_path, capsys, order):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"kind": "quandle", "order": order, "table": [[0]]}))
    with pytest.raises(ParseError, match="quandle 'order' must be an integer"):
        quandle.Quandle.from_json(json.loads(path.read_text()))
    code, captured = invoke(["aut", "--file", str(path)], capsys)
    assert code == 2
    assert captured.out == ""
    assert "quandle 'order' must be an integer" in captured.err


@pytest.mark.parametrize("labels", [5, ["a"], ["a", 1]], ids=["not-array", "too-few", "not-string"])
def test_file_labels_must_be_one_string_per_element(tmp_path, capsys, labels):
    path = tmp_path / "q.json"
    doc = {"kind": "quandle", "order": 2, "table": [[0, 0], [1, 1]], "labels": labels}
    path.write_text(json.dumps(doc))
    code, captured = invoke(["build", "--file", str(path)], capsys)
    assert code == 2
    assert "labels" in captured.err


@pytest.mark.parametrize("images", ["[false, true]", '[0, "2", 1]'], ids=["booleans", "string"])
def test_alexander_images_must_be_integers(tmp_path, capsys, images):
    autfile = tmp_path / "phi.json"
    autfile.write_text(images)
    group = "Z2" if images.startswith("[false") else "Z3"
    code, captured = invoke(["build", "--alexander", group, str(autfile)], capsys)
    assert code == 2
    assert captured.out == ""
    assert "integer images" in captured.err


def test_kind_dispatch_rejects_wrong_file(tmp_path, capsys):
    alpha = cocycle.trivial_cocycle(quandle.build("trivial", 2), 2)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha.to_json()))
    code, captured = invoke(["build", "--file", str(path)], capsys)
    assert code == 2
    assert "constant_cocycle" in captured.err

    code, captured = invoke(["iso", str(path), str(path)], capsys)
    assert code == 2


def test_input_digest_tracks_file_contents(r3_file, tmp_path, capsys):
    _, with_file = report_of(["build", "--file", r3_file], capsys)
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(quandle.build("dihedral", 3).to_json()))
    _, with_copy = report_of(["build", "--file", str(copy)], capsys)
    assert with_file["input_digest"] != with_copy["input_digest"]
    assert with_file["results"] == with_copy["results"]


def test_pretty_output_is_text(capsys):
    code, captured = invoke(["invariants", "--trivial", "3", "--pretty"], capsys)
    assert code == 0
    assert captured.out.startswith("command:")
    assert "aut_order: 6" in captured.out
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)


def test_pretty_theorem_case_lines(capsys):
    code, captured = invoke(
        ["theorem", "5.7", "--pretty", "--max-order", "6"], capsys
    )
    assert code == 0
    assert "[ok]" in captured.out
    assert "passed: True" in captured.out


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", "invariants", "--trivial", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["aut_order"] == 2


# Run in a fresh interpreter, so VmHWM is this run's own peak, not pytest's.
_PEAK_PROBE = """
import contextlib, io, json, sys, time
from quandlekit import cli
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run(sys.argv[1:])
seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "seconds": seconds, "peak_mb": peak_kb / 1024,
                  "report": json.loads(out.getvalue())}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("kind, order, free_rank",
                         [("trivial", 200, 200), ("dihedral", 200, 2), ("dihedral", 199, 1)],
                         ids=["trivial-200", "dihedral-2", "dihedral-1"])
def test_abelianization_at_the_construction_cap_stays_small(kind, order, free_rank):
    """All 39,800 relators of the trivial quandle of order 200 have zero exponent
    sums; those of the dihedral quandles have rows e_j - e_{j*i}, 9,900 and
    19,701 distinct up to sign at orders 200 and 199."""
    import subprocess

    argv = ["envelope", "--abelianization", f"--{kind}", str(order)]
    proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["code"] == 0
    assert probe["report"]["results"] == {"generators": order, "relators": order * (order - 1),
                                          "free_rank": free_rank, "torsion": []}
    assert probe["peak_mb"] < 128 and probe["seconds"] < 10


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


BASE1 = {"kind": "quandle", "order": 1, "table": [[0]]}
BASE2 = {"kind": "quandle", "order": 2, "table": [[0, 0], [1, 1]]}


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "constant_cocycle", "base": BASE2, "fiber": 2,
         "table": [[[0, 1], ["1", 0]], [[0, 1], [0, 1]]]},
        {"kind": "constant_cocycle", "base": BASE2, "fiber": 2,
         "table": [[[0, 1], [False, True]], [[0, 1], [0, 1]]]},
        {"kind": "constant_cocycle", "base": BASE1, "fiber": True, "table": [[[0]]]},
        {"kind": "constant_cocycle", "base": BASE1, "fiber": "1", "table": [[[0]]]},
        {"kind": "constant_cocycle", "base": BASE1, "table": [[[0]]]},
        {"kind": "constant_cocycle", "base": 5, "fiber": 1, "table": [[[0]]]},
        {"kind": "constant_cocycle", "base": BASE1, "fiber": 1, "table": [[0]]},
        {"kind": "abelian_cocycle", "base": BASE2, "moduli": [2],
         "table": [[[0], ["1"]], [[0], [0]]]},
        {"kind": "abelian_cocycle", "base": BASE2, "moduli": [2],
         "table": [[[False], [True]], [[0], [0]]]},
        {"kind": "abelian_cocycle", "base": BASE1, "moduli": [True], "table": [[[0]]]},
        {"kind": "abelian_cocycle", "base": BASE1, "moduli": 2, "table": [[[0]]]},
    ],
    ids=[
        "constant-string-entry", "constant-boolean-entries", "constant-boolean-fiber",
        "constant-string-fiber", "constant-no-fiber", "constant-base-not-object",
        "constant-entry-not-array", "abelian-string-entry", "abelian-boolean-entries",
        "abelian-boolean-modulus", "abelian-moduli-not-array",
    ],
)
def test_cocycle_files_must_hold_integers(tmp_path, capsys, doc):
    code, captured = invoke(["extend", _write(tmp_path, doc)], capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("quandlekit: error:")


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "union_spec", "q1": BASE1, "q2": BASE1, "sigma": [[False]], "tau": [[0]]},
        {"kind": "union_spec", "q1": BASE1, "q2": BASE1, "sigma": [[0.0]], "tau": [[0]]},
        {"kind": "union_spec", "q1": BASE1, "q2": BASE1, "sigma": 5, "tau": [[0]]},
        {"kind": "union_spec", "q1": BASE1, "q2": BASE1, "sigma": [[0]]},
        {"kind": "union_spec", "q1": [1], "q2": BASE1, "sigma": [[0]], "tau": [[0]]},
    ],
    ids=["boolean-entry", "float-entry", "sigma-not-array", "no-tau", "q1-not-object"],
)
def test_union_files_must_hold_integers(tmp_path, capsys, doc):
    code, captured = invoke(["union", _write(tmp_path, doc)], capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("quandlekit: error:")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("extend", {"kind": "constant_cocycle", "base": BASE1, "fiber": 0, "table": [[[]]]},
         "fiber must have at least one point"),
        ("union", {"kind": "union_spec", "q1": BASE1, "q2": BASE2, "sigma": [[0, 1]], "tau": [[0]]},
         "tau needs one entry per element of q2"),
    ],
    ids=["empty-fiber", "tau-one-short"],
)
def test_cocycle_and_union_shapes_are_checked(tmp_path, capsys, command, doc, message):
    code, captured = invoke([command, _write(tmp_path, doc)], capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"quandlekit: error: {message}\n"


@pytest.mark.parametrize("kind", [[], {}], ids=["array", "object"])
@pytest.mark.parametrize("command", ["invariants", "iso", "extend", "union"])
def test_a_kind_that_is_not_a_string_exits_two(tmp_path, capsys, kind, command):
    path = _write(tmp_path, {"kind": kind, "order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]})
    argv = {"invariants": ["invariants", "--file", path], "iso": ["iso", path, path]}
    code, captured = invoke(argv.get(command, [command, path]), capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"quandlekit: error: {path}: unknown kind")


_FUZZ_VALUES = ([], {}, None, True, False, 0, 1, -1, 2, 3, 1.5, "x", "quandle", [0], [[]],
                [[0]], [[0, 1], [1, 0]], [[True]], [[-1]], {"kind": []}, 10**12)


def _fuzz_paths(value, path=()):
    """Every path to a field or array entry inside a JSON value, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


def _mutate(doc, rng):
    """A deep copy of doc with one field or entry replaced, or one field deleted."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_fuzz_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(_FUZZ_VALUES)
    return doc


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    """Seeded mutations of valid documents give exit 0, 1 or 2 and never a traceback.

    Exit 2 must be a refusal of the input: an internal error fails the test.

    Exit 1 means a failed check, and of these commands only `iso` has one.
    The `kind: []` document is listed first, so it always runs.
    """
    rng = random.Random(14)
    r3, t2 = quandle.build("dihedral", 3), quandle.build("trivial", 2)
    swap, ident = Perm((1, 0)), Perm.identity(2)
    valid = _write(tmp_path, r3.to_json())
    documents = [
        (r3.to_json(), [["invariants", "--file"], ["iso", valid]]),
        (cocycle.validate_constant(t2, 2, [[ident, swap], [ident, ident]]).to_json(), [["extend"]]),
        (cocycle.validate_abelian(r3, [2], [[[0]] * 3] * 3).to_json(), [["extend"]]),
        (construct.make_union_spec(t2, quandle.build("trivial", 1), [Perm((0,))] * 2, [swap])
         .to_json(), [["union"]]),
    ]
    mutated = [(dict(r3.to_json(), kind=[]), documents[0][1])]
    mutated += [(_mutate(doc, rng), commands) for doc, commands in documents for _ in range(200)]
    path = str(tmp_path / "mutated.json")
    codes = collections.Counter()
    for doc, commands in mutated:
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in commands:
            code = cli.run(command + [path])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, doc)
            assert "internal error" not in err, (command, doc, err)
            assert code != 1 or command[0] == "iso", (command, doc)
            codes[code] += 1
    assert codes[2] > codes[0] > 0


@pytest.mark.parametrize(
    "words", ["[[true]]", "[5]", "{}"], ids=["boolean-letter", "word-not-array", "not-a-list"]
)
def test_coset_enum_words_must_be_integer_arrays(capsys, words):
    argv = ["envelope", "--dihedral", "3", "--coset-enum", words, "--max-cosets", "10"]
    code, captured = invoke(argv, capsys)
    assert code == 2
    assert captured.out == ""
    assert "word" in captured.err


@pytest.mark.parametrize("moduli", [[5, 13], [10**12]], ids=["just-above-cap", "huge"])
def test_extend_caps_the_abelian_fiber_before_building_it(tmp_path, capsys, moduli):
    doc = {"kind": "abelian_cocycle", "base": BASE1, "moduli": moduli,
           "table": [[[0] * len(moduli)]]}
    path = _write(tmp_path, doc)
    code, captured = invoke(["extend", path], capsys)
    assert code == 2
    assert captured.out == ""
    size = 65 if moduli == [5, 13] else 10**12
    assert f"order {size} exceeds the fiber cap {cocycle.DEFAULT_FIBER_CAP}" in captured.err
    assert "--cap-order" in captured.err


FIBER65_CONSTANT = {"kind": "constant_cocycle", "base": BASE1, "fiber": 65,
                    "table": [[list(range(65))]]}


def test_extend_caps_the_constant_fiber_before_building_it(tmp_path, capsys):
    code, captured = invoke(["extend", _write(tmp_path, FIBER65_CONSTANT)], capsys)
    assert code == 2
    assert captured.out == ""
    assert "fiber size 65 exceeds the fiber cap 64 (raise it with --cap-order)" in captured.err


def test_extend_fiber_cap_is_raised_by_cap_order(tmp_path, capsys):
    abelian = {"kind": "abelian_cocycle", "base": BASE1, "moduli": [5, 13], "table": [[[0, 0]]]}
    for doc in (abelian, FIBER65_CONSTANT):
        code, report = report_of(["extend", _write(tmp_path, doc), "--cap-order", "65"], capsys)
        assert code == 0
        assert report["results"]["fiber"] == 65


# Cocycles over the trivial quandle of order 4 with a fiber of 51 points: 204 extension points.
_T4 = quandle.build("trivial", 4).to_json()
EXTENSION_204 = [
    {"kind": "abelian_cocycle", "base": _T4, "moduli": [51], "table": [[[0]] * 4] * 4},
    {"kind": "constant_cocycle", "base": _T4, "fiber": 51, "table": [[list(range(51))] * 4] * 4},
]


@pytest.mark.parametrize("doc", EXTENSION_204, ids=["abelian", "constant"])
@pytest.mark.parametrize("cap", [None, "203"])
def test_extend_caps_the_extension_order_before_building_it(tmp_path, capsys, monkeypatch, doc, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the construction cap")

    monkeypatch.setattr(cocycle, "abelian_to_constant", refuse)
    monkeypatch.setattr(cocycle, "extend", refuse)
    argv = ["extend", _write(tmp_path, doc)] + ([] if cap is None else ["--cap-group", cap])
    code, captured = invoke(argv, capsys)
    assert code == 2
    assert captured.out == ""
    assert (f"extension order 4 * 51 exceeds the construction cap {cap or 200} "
            "(raise it with --cap-group)") in captured.err


@pytest.mark.parametrize("doc", EXTENSION_204, ids=["abelian", "constant"])
def test_extend_extension_cap_is_raised_by_cap_group(tmp_path, capsys, doc):
    code, report = report_of(["extend", _write(tmp_path, doc), "--cap-group", "204"], capsys)
    assert code == 0
    assert report["results"]["extension"]["order"] == 204


# Help and usage text, pinned as (exit code, sha256 of stdout, sha256 of
# stderr) and recorded when every invocation built all twelve subparsers.
# argparse words its help and errors differently across Python minor
# versions, so the pins hold for Python 3.11 only.
EMPTY = hashlib.sha256(b"").hexdigest()
CLI_TEXT_PINS = {
    "--help": (0, "31bd78694c7e821e877d4dceff84c0da14912ac4b542dc973e887a9bc9f44dc2",
        EMPTY),
    "build --help": (0, "5188cac44ed019ee7dfcb448df01f81d851ce2070b060703e3eefec481a664bb",
        EMPTY),
    "invariants --help": (0, "af392902288c2392386adbf4985aed7f3048359cefb5c033e6d3305b64a69341",
        EMPTY),
    "aut --help": (0, "f7f1c17f4ce8d23e40d036cd9d14a822ae3c208bdfb81a12fb3fb720d37654bb",
        EMPTY),
    "inn --help": (0, "7bf1fa47bf33bde555801935f28b6fe7159321d811c9c7a1d94903ba4ff25490",
        EMPTY),
    "qinn --help": (0, "aee4091b9cb0512193843848d5966edde809ae8a6398f0e34feac4204cc04c2d",
        EMPTY),
    "iso --help": (0, "70445727cb8d3345abe961591e2fd887f349f7778f3ea144a1bf26ac5eeec96f",
        EMPTY),
    "enumerate --help": (0, "908874a30dcd3649cc108925e7d9cf528da388ada3f979a4be55b53fa17db427",
        EMPTY),
    "envelope --help": (0, "d85c0dcf7dc7c9a98df9bd2ed3014874771778c9e8c898142d38ae74ad484455",
        EMPTY),
    "extend --help": (0, "e7908cae35aec22f4cb8ef56a18fde04ca6fd2fdeadae3419bd05a43f2fad5f6",
        EMPTY),
    "h2 --help": (0, "09301a2c7ea63e30e12b2337876acf9352aa388b92de177c4272e9c71fdceae9",
        EMPTY),
    "union --help": (0, "5fe706027e0d8400f868757841154064018d8b981d305c7fa865ebeacd707d82",
        EMPTY),
    "theorem --help": (0, "f5780268a23a801b82cfb35c33a332224dcda5fa7000ac9cb960388048421836",
        EMPTY),
    "": (2, EMPTY,
        "3539c0d3ebd1baa0ed7373a2b7d1a7e808f046db5f72bba80c08cd1c8069637f"),
    "frobnicate": (2, EMPTY,
        "ce62fe993cad85cb211d7cc044a1d7ed66d9ab4165ca385da1fe0d5ff061b634"),
    "build": (2, EMPTY,
        "e0953ee8472013df39583a10d57ce440cc4a02fb0613d0829eccc5c321d04396"),
    "build --trivial 2 --dihedral 3": (2, EMPTY,
        "05fe1c1761ca77cb2d421fcad55ee28c394dfa8334a5e098aab69442d5e9a973"),
    "build --trivial 2 --power 2": (2, EMPTY,
        "ff31791206d743587c2cbb511849b58a2b42f3f95a21ed06c4f8076a5850ee4c"),
    "invariants --conj FROB": (2, EMPTY,
        "6b517bc6f3f8606ef2621692ff7357b5f9ff42cec785cc6fdec1abc22d842489"),
    "envelope --dihedral 3 --coset-enum [[1]]": (2, EMPTY,
        "5926f7f0cc267569bc8a98f6b35a22ac62b5524591fe21df916de70a49399e63"),
    "inn --dihedral 3 extra": (2, EMPTY,
        "905f0798ad9c926aa2875726102c06075345abc04328c894c6e0389084cc3137"),
    "enumerate four": (2, EMPTY,
        "cc6aa43b10383be3755a3eb1b58bfa9b89a3da429097eaf7c0b3013ce9522259"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pins record Python 3.11 argparse text")
@pytest.mark.parametrize("argv", sorted(CLI_TEXT_PINS))
def test_help_and_usage_text_is_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.run(argv.split())
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    captured = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest(captured.out), digest(captured.err)) == CLI_TEXT_PINS[argv]


@pytest.mark.parametrize("argv", [["inn", "--dihedral", "3"], ["--help"], [], ["frobnicate"]])
def test_run_adds_no_subparser(argv, capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    with contextlib.suppress(SystemExit):
        cli.run(argv)
    capsys.readouterr()
    assert added == []


@pytest.mark.parametrize(
    "source", [["--trivial", "201"], ["--dihedral", "201"], ["--conj", "Z201"]],
    ids=["trivial", "dihedral", "conj"],
)
def test_flag_sources_are_capped_before_building(source, capsys):
    code, captured = invoke(["build", *source], capsys)
    assert code == 2
    assert captured.out == ""
    assert "201 exceeds" in captured.err
    assert "--cap-group" in captured.err


def test_dihedral_group_spec_names_cap_group(capsys):
    code, captured = invoke(["build", "--conj", "D101"], capsys)
    assert code == 2
    assert captured.out == ""
    assert "D101: group order 202 exceeds cap 200" in captured.err
    assert captured.err.rstrip().endswith("(raise it with --cap-group)")


def test_odd_takasaki_suite_runs_past_order_eight(capsys):
    code, report = report_of(["theorem", "5.2", "--max-order", "9", "--cap-order", "9"], capsys)
    assert code == 0 and report["passed"]
    cases = {c["case"]: c for c in report["results"]["cases"]}
    assert (cases["Z9"]["aut_order"], cases["Z9"]["inn_order"]) == (54, 18)
    assert cases["Z3xZ3"]["aut_order"] == 432


def test_source_cap_is_raised_by_cap_group(capsys):
    code, report = report_of(["build", "--trivial", "201", "--cap-group", "201"], capsys)
    assert code == 0
    assert report["results"]["order"] == 201



_DEEP = "[" * 100_000
_HUGE = str(10**20)
_MID_CAPS = range(1, 13)


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["invariants", "--file", "DEEP"], "is not valid JSON"),
        (["envelope", "--dihedral", "3", "--coset-enum", _DEEP, "--max-cosets", "10"],
         "bad SUBGENS value"),
        (["theorem", "6.3", "--max-order", "0"], "--max-order 0 is below the floor of order 1"),
        (["enumerate", "0"], None),
        (["h2", "--dihedral", "3", "--coeff", "Z0"], None),
        (["h2", "--dihedral", "3", "--coeff", "Z2x"], None),
        (["h2", "--dihedral", "3", "--coeff", "Z" + "9" * 20], None),
        (["invariants", "--conj", "S3", "--power", "-" + _HUGE], None),
        (["theorem", "5.4", "--max-order", _HUGE], None),
        (["envelope", "--dihedral", "3", "--coset-enum", "[[1]]", "--max-cosets", "-1"], None),
        (["envelope", "--dihedral", "3", "--coset-enum", "[[1,1]]", "--max-cosets", _HUGE],
         {"index": 6}),
        (["theorem", "7.3", "--cap-order", _HUGE], None),
        (["theorem", "3.3", "--max-order", "-1"], None),
        # the inner-group sweep of 6.3 reads --cap-order as its enumeration cap too
        (["theorem", "6.3", "--max-order", "1", "--cap-order", "7"], {"passed": True}),
        # group specs refused by make_group
        (["build", "--conj", "Z0"], "Z atoms need n >= 1"),
        (["build", "--conj", " "], "empty group spec"),
        (["build", "--core", "Z15xZ15"],
         "product order exceeds group cap 200 (raise it with --cap-group)"),
        (["build", "--conj", "S5", "--cap-group", "100"],
         "group order 120 exceeds cap 100 (raise it with --cap-group)"),
    ]
    # Mid-range coset caps on R_3, where the lookahead at the cap fires: a
    # cap completes from 7 live cosets on, and below that names its flag.
    + [(["envelope", "--dihedral", "3", "--coset-enum", "[[1,1]]", "--max-cosets", str(k)],
        {"index": 6} if k >= 7 else "raise it with --max-cosets") for k in _MID_CAPS]
    + [(["theorem", "3.1", "--cap-order", str(k)], None if k >= 7 else "raise it with --cap-order")
       for k in _MID_CAPS],
    ids=["deep-json-file", "deep-json-words", "6.3-max-order-0", "enumerate-0", "coeff-Z0",
         "coeff-trailing-x", "coeff-huge", "power-huge", "5.4-max-order-huge",
         "max-cosets-negative", "max-cosets-huge", "7.3-cap-order-huge",
         "3.3-max-order-negative", "6.3-cap-order-7", "spec-Z0", "spec-blank",
         "spec-product-over-cap", "spec-order-over-cap"]
    + [f"max-cosets-{k}" for k in _MID_CAPS] + [f"3.1-cap-order-{k}" for k in _MID_CAPS],
)
def test_flag_edge_values_exit_cleanly(tmp_path, capsys, argv, expect):
    """Edge values of flags give exit 0, 1 or 2 and never a traceback.

    A row that expects a refusal message must exit 2 with that message; a
    row that expects results must exit 0 with those results.
    """
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    code, captured = invoke([str(deep) if a == "DEEP" else a for a in argv], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if isinstance(expect, str):
        assert code == 2 and captured.out == ""
        assert expect in captured.err
    elif expect is not None:
        assert code == 0
        results = json.loads(captured.out)["results"]
        assert {key: results[key] for key in expect} == expect


def test_h2_reports_a_faulty_representative_as_an_internal_error(capsys, monkeypatch):
    """A representative nonzero on the diagonal is a fault of quandlekit, not a refused input."""
    real = cocycle._h2_cyclic

    def unnormalized(*args):
        pieces, generators = real(*args)
        pieces[0][1][0] = 1  # the cell (0, 0)
        return pieces, generators

    monkeypatch.setattr(cocycle, "_h2_cyclic", unnormalized)
    code, captured = invoke(["h2", "--dihedral", "4", "--coeff", "Z2"], capsys, internal_error=True)
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("quandlekit: internal error: AssertionError: ")
    assert "not a cocycle at (0,)" in captured.err
    assert "not normalized" not in captured.err


def test_coset_enumeration_stops_at_the_fixed_ceiling(capsys, monkeypatch):
    # the trivial subgroup of As(R3) has infinite index, so only a bound stops the table
    monkeypatch.setattr(envgroup, "_COSET_CEILING", 1000)
    argv = ["envelope", "--dihedral", "3", "--coset-enum", "[]", "--max-cosets", _HUGE]
    code, captured = invoke(argv, capsys)
    assert code == 2 and captured.out == ""
    assert "coset enumeration reached the fixed ceiling of 1000 live cosets" in captured.err
    assert "raise it with" not in captured.err


@pytest.mark.parametrize("name, argv, error", [
    ("inn", ["inn", "--dihedral", "3"], RuntimeError("lost a coset")),
    ("h2", ["h2", "--dihedral", "3", "--coeff", "Z2"], AssertionError("certificate failed")),
])
def test_internal_error_exits_2_without_a_traceback(name, argv, error, capsys, monkeypatch):
    def fail(args, inputs):
        raise error

    monkeypatch.setitem(cli._COMMANDS, name, cli._COMMANDS[name]._replace(handler=fail))
    code, captured = invoke(argv, capsys, internal_error=True)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"quandlekit: internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in captured.err
