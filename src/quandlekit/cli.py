"""Command-line front end.

Builds quandles from flags or files, prints invariant and group reports,
drives the enveloping-group tooling, extensions, unions and the named
check suites.  Reports are JSON on standard output; --pretty switches to
aligned tables for reading.  Exit code 0 means success with every check
passing, 1 means some check failed, 2 means the invocation or an input
file was bad.

Reports carry a digest over everything except the timing field, so two
runs with the same inputs are byte-identical apart from "timing_ms".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import sys
import time

from . import cocycle as cocyclemod
from . import construct as constructmod
from . import envgroup
from . import fingroup
from . import quandle as quandlemod
from . import theorems
from .errors import CapExceeded, ParseError, QuandleKitError
from .perm import Perm
from .quandle import Quandle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="quandlekit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    def add(name, help_text, source=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="aligned tables instead of JSON")
        p.add_argument("--cap-order", type=int, default=None, metavar="N",
                       help="override order caps (automorphism search, enumeration, "
                            "cohomology, abelian fibers)")
        p.add_argument("--cap-group", type=int, default=None, metavar="N",
                       help="override the group-construction cap")
        if source:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--trivial", type=int, metavar="N")
            grp.add_argument("--dihedral", type=int, metavar="N")
            grp.add_argument("--conj", metavar="SPEC")
            grp.add_argument("--core", metavar="SPEC")
            grp.add_argument("--alexander", nargs=2, metavar=("SPEC", "AUTFILE"))
            grp.add_argument("--file", metavar="PATH")
            p.add_argument("--power", type=int, default=None, metavar="K",
                           help="conjugation exponent, only with --conj")
        return p

    add("build", "construct a quandle and print it", source=True)
    add("invariants", "orders, orbits and flags of a quandle", source=True)
    add("aut", "automorphism group of a quandle", source=True)
    add("inn", "inner automorphism group of a quandle", source=True)
    add("qinn", "quasi-inner automorphism group of a quandle", source=True)

    p = add("iso", "test two quandle files for isomorphism")
    p.add_argument("file1", metavar="FILE1")
    p.add_argument("file2", metavar="FILE2")

    p = add("enumerate", "all isomorphism classes of a given order")
    p.add_argument("n", type=int, metavar="N")

    p = add("envelope", "enveloping-group computations", source=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--abelianization", action="store_true")
    mode.add_argument("--coset-enum", metavar="SUBGENS",
                      help="JSON list of subgroup words in signed 1-based letters")
    p.add_argument("--max-cosets", type=int, default=None, metavar="M")

    p = add("extend", "extension quandle of a cocycle file")
    p.add_argument("cocyclefile", metavar="COCYCLEFILE")

    p = add("h2", "second cohomology with cyclic-sum coefficients", source=True)
    p.add_argument("--coeff", required=True, metavar="SPEC")

    p = add("union", "glue two quandles along a union spec file")
    p.add_argument("specfile", metavar="SPECFILE")

    p = add("theorem", "run a named check suite")
    p.add_argument("tid", metavar="ID")
    p.add_argument("--max-order", type=int, default=None, metavar="N")
    p.add_argument("--trials", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="N")

    return parser


class _Inputs:
    """Collects the bytes of every file an invocation reads."""

    def __init__(self):
        self.files: dict[str, str] = {}

    def load_json(self, path: str):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise QuandleKitError(f"cannot read {path}: {exc}") from exc
        self.files[path] = hashlib.sha256(raw).hexdigest()
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise QuandleKitError(f"{path} is not valid JSON: {exc}") from exc


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


_FILE_READERS = {
    "quandle": Quandle.from_json,
    "constant_cocycle": cocyclemod.ConstantCocycle.from_json,
    "abelian_cocycle": cocyclemod.AbelianCocycle.from_json,
    "union_spec": constructmod.UnionSpec.from_json,
    "presentation": envgroup.Presentation.from_json,
}


def _detect(doc, path: str, expected: tuple):
    """Dispatch a loaded JSON document on its top-level kind field."""
    if not isinstance(doc, dict):
        raise QuandleKitError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    if kind is None:
        raise QuandleKitError(f"{path}: missing the 'kind' field")
    if kind not in _FILE_READERS:
        raise QuandleKitError(f"{path}: unknown kind {kind!r}")
    if kind not in expected:
        raise QuandleKitError(
            f"{path}: kind {kind!r} not usable here (expected one of {', '.join(expected)})"
        )
    return kind, _FILE_READERS[kind](doc)


def _group_from_spec(spec: str, cap_group: int | None):
    cap = fingroup.DEFAULT_GROUP_CAP if cap_group is None else cap_group
    return fingroup.make_group(spec, cap=cap)


def _source_quandle(args, inputs: _Inputs) -> Quandle:
    if args.power is not None and args.conj is None:
        raise _UsageError("quandlekit: error: --power only applies with --conj")
    if args.trivial is not None:
        return quandlemod.build("trivial", args.trivial)
    if args.dihedral is not None:
        return quandlemod.build("dihedral", args.dihedral)
    if args.conj is not None:
        group = _group_from_spec(args.conj, args.cap_group)
        power = 1 if args.power is None else args.power
        return fingroup.conj_quandle(group, power)
    if args.core is not None:
        return fingroup.core_quandle(_group_from_spec(args.core, args.cap_group))
    if args.alexander is not None:
        spec, autfile = args.alexander
        group = _group_from_spec(spec, args.cap_group)
        images = inputs.load_json(autfile)
        if not isinstance(images, list) or not all(type(i) is int for i in images):
            raise QuandleKitError(f"{autfile}: expected a JSON array of integer images")
        return fingroup.alexander_quandle(group, Perm(images))
    doc = inputs.load_json(args.file)
    _, q = _detect(doc, args.file, expected=("quandle",))
    return q


def _aut_cap(args) -> int:
    return quandlemod.DEFAULT_AUT_CAP if args.cap_order is None else args.cap_order


@contextlib.contextmanager
def _cap_order_flag():
    """Name --cap-order in a CapExceeded raised by an order-capped call."""
    try:
        yield
    except CapExceeded as exc:
        raise CapExceeded(f"{exc} (raise it with --cap-order)") from exc


def _permgroup_doc(group) -> dict:
    return {
        "degree": group.degree,
        "order": group.order,
        "generators": [list(g.images) for g in group.generators],
    }


_COEFF_RE = re.compile(r"^Z(\d+)$")


def _parse_moduli(spec: str) -> tuple:
    moduli = []
    for token in spec.split("x"):
        match = _COEFF_RE.match(token.strip())
        if not match or int(match.group(1)) < 1:
            raise ParseError(f"bad coefficient spec {spec!r}; use forms like Z2 or Z2xZ4")
        moduli.append(int(match.group(1)))
    return tuple(moduli)


def _run_subcommand(args, inputs: _Inputs):
    """Compute (results, checks) for a parsed invocation."""
    cmd = args.subcommand

    if cmd == "build":
        return _source_quandle(args, inputs).to_json(), {}

    if cmd == "invariants":
        q = _source_quandle(args, inputs)
        with _cap_order_flag():
            aut_q = quandlemod.aut(q, cap=_aut_cap(args))
        results = {
            "order": q.order,
            "aut_order": aut_q.order,
            "inn_order": quandlemod.inn(q).order,
            "qinn_order": quandlemod.quasi_inner_subgroup(q, aut_q).order,
            "connected": quandlemod.is_connected(q),
            "involutory": quandlemod.is_involutory(q),
            "orbits": quandlemod.orbit_partition(q),
            "center": quandlemod.center(q),
        }
        return results, {}

    if cmd in ("aut", "inn", "qinn"):
        q = _source_quandle(args, inputs)
        if cmd == "inn":
            group = quandlemod.inn(q)
        else:
            search = quandlemod.aut if cmd == "aut" else quandlemod.qinn
            with _cap_order_flag():
                group = search(q, cap=_aut_cap(args))
        return _permgroup_doc(group), {}

    if cmd == "iso":
        _, q1 = _detect(inputs.load_json(args.file1), args.file1, ("quandle",))
        _, q2 = _detect(inputs.load_json(args.file2), args.file2, ("quandle",))
        witness = quandlemod.find_isomorphism(q1, q2)
        results = {
            "isomorphic": witness is not None,
            "witness": None if witness is None else list(witness.images),
        }
        return results, {"isomorphic": witness is not None}

    if cmd == "enumerate":
        cap = quandlemod.DEFAULT_ENUM_CAP if args.cap_order is None else args.cap_order
        with _cap_order_flag():
            classes = quandlemod.enumerate_quandles(args.n, cap=cap)
        results = {
            "order": args.n,
            "count": len(classes),
            "tables": [[list(row) for row in q.table] for q in classes],
        }
        return results, {}

    if cmd == "envelope":
        q = _source_quandle(args, inputs)
        p = envgroup.presentation_of(q)
        if args.abelianization:
            free_rank, torsion = envgroup.abelianization(p)
            results = {
                "generators": p.ngens,
                "relators": len(p.relators),
                "free_rank": free_rank,
                "torsion": list(torsion),
            }
            return results, {}
        if args.max_cosets is None:
            raise _UsageError("quandlekit: error: --coset-enum requires --max-cosets")
        try:
            words_doc = json.loads(args.coset_enum)
        except json.JSONDecodeError as exc:
            raise QuandleKitError(f"bad SUBGENS value: {exc}") from exc
        if not isinstance(words_doc, list):
            raise QuandleKitError("SUBGENS must be a JSON list of words")
        words = [envgroup.word_from_json(w) for w in words_doc]
        index = envgroup.todd_coxeter(p, subgroup_words=words, max_cosets=args.max_cosets)
        results = {
            "generators": p.ngens,
            "subgroup_words": words_doc,
            "max_cosets": args.max_cosets,
            "index": index,
        }
        return results, {}

    if cmd == "extend":
        doc = inputs.load_json(args.cocyclefile)
        kind, value = _detect(
            doc, args.cocyclefile, ("constant_cocycle", "abelian_cocycle")
        )
        if kind == "constant_cocycle":
            alpha = value
        else:
            cap = cocyclemod.DEFAULT_FIBER_CAP if args.cap_order is None else args.cap_order
            with _cap_order_flag():
                alpha = cocyclemod.abelian_to_constant(value, cap=cap)
        ext = cocyclemod.extend(alpha)
        results = {
            "base_order": alpha.base.order,
            "fiber": alpha.fiber_size,
            "extension": ext.to_json(),
        }
        return results, {}

    if cmd == "h2":
        q = _source_quandle(args, inputs)
        moduli = _parse_moduli(args.coeff)
        max_order = 8 if args.cap_order is None else args.cap_order
        with _cap_order_flag():
            factors, reps = cocyclemod.compute_h2(q, moduli, max_order=max_order)
        results = {
            "moduli": list(moduli),
            "invariant_factors": list(factors),
            "representatives": [r.to_json() for r in reps],
        }
        return results, {}

    if cmd == "union":
        doc = inputs.load_json(args.specfile)
        _, spec = _detect(doc, args.specfile, ("union_spec",))
        return constructmod.union_quandle(spec).to_json(), {}

    if cmd == "theorem":
        options = {
            key: getattr(args, key)
            for key in ("max_order", "trials", "seed", "cap_order", "cap_group")
            if getattr(args, key) is not None
        }
        report = theorems.run_suite(args.tid, options)
        return report, {"passed": report["passed"]}

    raise _UsageError("quandlekit: error: a subcommand is required")


def _pretty_rows(table) -> list:
    widths = [max(len(str(row[j])) for row in table) for j in range(len(table[0]))]
    return [
        " ".join(str(v).rjust(w) for v, w in zip(row, widths)) for row in table
    ]


def _is_int_table(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(
            isinstance(row, list) and row and all(isinstance(v, int) for v in row)
            for row in value
        )
    )


def _pretty(value, indent: str = "") -> list:
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and not isinstance(item, bool):
                lines.append(f"{indent}{key}:")
                lines.extend(_pretty(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {item}")
    elif _is_int_table(value):
        lines.extend(indent + row for row in _pretty_rows(value))
    elif isinstance(value, list) and value and all(isinstance(c, dict) and "case" in c for c in value):
        for case in value:
            mark = "ok" if case.get("passed") else "FAIL"
            extras = ", ".join(
                f"{k}={v}" for k, v in case.items() if k not in ("case", "passed")
            )
            lines.append(f"{indent}[{mark}] {case['case']}" + (f" ({extras})" if extras else ""))
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_pretty(item, indent + "  "))
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        lines = [f"command: {' '.join(report['command'])}"]
        lines.extend(_pretty(report["results"]))
        if report["checks"]:
            lines.extend(_pretty({"checks": report["checks"]}))
        lines.append(f"passed: {report['passed']}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def run(argv) -> int:
    """Parse argv, execute, print one report; returns the exit code."""
    argv = list(argv)
    parser = _build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.error("a subcommand is required")
        inputs = _Inputs()
        results, checks = _run_subcommand(args, inputs)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (QuandleKitError, ValueError) as exc:
        print(f"quandlekit: error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": argv,
        "input_digest": hashlib.sha256(
            _canonical({"argv": argv, "files": inputs.files})
        ).hexdigest(),
        "results": results,
        "checks": checks,
        "passed": all(checks.values()),
    }
    report["report_digest"] = hashlib.sha256(_canonical(report)).hexdigest()
    report["timing_ms"] = int((time.monotonic() - started) * 1000)
    _emit(report, args.pretty)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
