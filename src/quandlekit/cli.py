"""Command-line front end.

Builds quandles from flags or files, prints invariant and group reports,
drives the enveloping-group tooling, extensions, unions and the named
check suites.  Reports are one line of canonical JSON on standard output;
--pretty switches to aligned tables for reading.  Exit code 0 means
success with every check passing, 1 means some check failed, 2 means the
invocation or an input file was bad.

Reports carry a digest over everything except the timing field, so two
runs with the same inputs are byte-identical apart from "timing_ms".
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import re
import sys
import time

from . import cocycle as cocyclemod
from . import construct as constructmod
from . import envgroup
from . import fingroup
from . import quandle as quandlemod
from . import theorems
from .errors import CapExceeded, ParseError, QuandleKitError, _cap_flag
from .perm import Perm
from .quandle import Quandle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


_FILE_READERS = {
    "quandle": Quandle.from_json,
    "constant_cocycle": cocyclemod.ConstantCocycle.from_json,
    "abelian_cocycle": cocyclemod.AbelianCocycle.from_json,
    "union_spec": constructmod.UnionSpec.from_json,
}


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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise QuandleKitError(f"{path} is not valid JSON: {exc}") from exc

    def load_doc(self, path: str, expected: tuple):
        """Load a JSON document and read it by its top-level kind field."""
        doc = self.load_json(path)
        if not isinstance(doc, dict):
            raise QuandleKitError(f"{path}: expected a JSON object")
        kind = doc.get("kind")
        if kind is None:
            raise QuandleKitError(f"{path}: missing the 'kind' field")
        if not isinstance(kind, str) or kind not in _FILE_READERS:
            raise QuandleKitError(f"{path}: unknown kind {kind!r}")
        if kind not in expected:
            raise QuandleKitError(
                f"{path}: kind {kind!r} not usable here (expected one of {', '.join(expected)})"
            )
        return _FILE_READERS[kind](doc)


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _cap_order(args, default: int) -> int:
    return default if args.cap_order is None else args.cap_order


def _cap_group(args) -> int:
    return fingroup.DEFAULT_GROUP_CAP if args.cap_group is None else args.cap_group


def _source_quandle(args, inputs: _Inputs) -> Quandle:
    if args.power is not None and args.conj is None:
        raise _UsageError("quandlekit: error: --power only applies with --conj")
    cap = _cap_group(args)
    with _cap_flag("--cap-group"):
        for kind in ("trivial", "dihedral"):
            n = getattr(args, kind)
            if n is not None:
                if n > cap:
                    raise CapExceeded(f"quandle order {n} exceeds the construction cap {cap}")
                return quandlemod.build(kind, n)
        if args.conj is not None:
            power = 1 if args.power is None else args.power
            return fingroup.conj_quandle(fingroup.make_group(args.conj, cap=cap), power)
        if args.core is not None:
            return fingroup.core_quandle(fingroup.make_group(args.core, cap=cap))
        if args.alexander is not None:
            spec, autfile = args.alexander
            group = fingroup.make_group(spec, cap=cap)
            images = inputs.load_json(autfile)
            if not isinstance(images, list) or not all(type(i) is int for i in images):
                raise QuandleKitError(f"{autfile}: expected a JSON array of integer images")
            return fingroup.alexander_quandle(group, Perm(images))
    return inputs.load_doc(args.file, ("quandle",))


_COEFF_RE = re.compile(r"^Z(\d+)$")


def _parse_moduli(spec: str) -> tuple:
    moduli = []
    for token in spec.split("x"):
        match = _COEFF_RE.match(token.strip())
        if not match or int(match.group(1)) < 1:
            raise ParseError(f"bad coefficient spec {spec!r}; use forms like Z2 or Z2xZ4")
        moduli.append(int(match.group(1)))
    return tuple(moduli)


# One handler per subcommand; each computes (results, checks).
def _build(args, inputs):
    return _source_quandle(args, inputs).to_json(), {}


def _invariants(args, inputs):
    q = _source_quandle(args, inputs)
    cap = _cap_order(args, quandlemod.DEFAULT_AUT_CAP)
    with _cap_flag("--cap-order"):
        aut_order = quandlemod.aut(q, cap=cap).order
        qinn_order = quandlemod.qinn(q, cap=cap).order
    return {
        "order": q.order,
        "aut_order": aut_order,
        "inn_order": quandlemod.inn(q).order,
        "qinn_order": qinn_order,
        "connected": quandlemod.is_connected(q),
        "involutory": quandlemod.is_involutory(q),
        "orbits": quandlemod.orbit_partition(q),
        "center": quandlemod.center(q),
    }, {}


def _group(args, inputs):
    """aut, inn and qinn: the named permutation group of the quandle."""
    q = _source_quandle(args, inputs)
    if args.subcommand == "inn":
        group = quandlemod.inn(q)
        generators = quandlemod.inner_generators(q)
    else:
        search = quandlemod.aut if args.subcommand == "aut" else quandlemod.qinn
        with _cap_flag("--cap-order"):
            group = search(q, cap=_cap_order(args, quandlemod.DEFAULT_AUT_CAP))
        generators = group.generators
    return {
        "degree": group.degree,
        "order": group.order,
        "generators": [list(g.images) for g in generators],
    }, {}


def _iso(args, inputs):
    q1, q2 = (inputs.load_doc(path, ("quandle",)) for path in (args.file1, args.file2))
    witness = quandlemod.find_isomorphism(q1, q2)
    results = {
        "isomorphic": witness is not None,
        "witness": None if witness is None else list(witness.images),
    }
    return results, {"isomorphic": witness is not None}


def _enumerate(args, inputs):
    cap = _cap_order(args, quandlemod.DEFAULT_ENUM_CAP)
    with _cap_flag("--cap-order"):
        classes = quandlemod.enumerate_quandles(args.n, cap=cap)
    return {
        "order": args.n,
        "count": len(classes),
        "tables": [[list(row) for row in q.table] for q in classes],
    }, {}


def _envelope(args, inputs):
    if args.abelianization and args.max_cosets is not None:
        raise _UsageError("quandlekit: error: --max-cosets only applies with --coset-enum")
    q = _source_quandle(args, inputs)
    p = envgroup.presentation_of(q)
    if args.abelianization:
        free_rank, torsion = envgroup.abelianization(p)
        return {
            "generators": p.ngens,
            "relators": len(p.relators),
            "free_rank": free_rank,
            "torsion": list(torsion),
        }, {}
    if args.max_cosets is None:
        raise _UsageError("quandlekit: error: --coset-enum requires --max-cosets")
    try:
        words_doc = json.loads(args.coset_enum)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise QuandleKitError(f"bad SUBGENS value: {exc}") from exc
    if not isinstance(words_doc, list):
        raise QuandleKitError("SUBGENS must be a JSON list of words")
    words = [envgroup.word_from_json(w) for w in words_doc]
    with _cap_flag("--max-cosets"):
        index = envgroup.todd_coxeter(p, subgroup_words=words, max_cosets=args.max_cosets)
    return {
        "generators": p.ngens,
        "subgroup_words": words_doc,
        "max_cosets": args.max_cosets,
        "index": index,
    }, {}


def _extend(args, inputs):
    alpha = inputs.load_doc(args.cocyclefile, ("constant_cocycle", "abelian_cocycle"))
    abelian = isinstance(alpha, cocyclemod.AbelianCocycle)
    n, s = alpha.base.order, math.prod(alpha.moduli) if abelian else alpha.fiber_size
    cap, group_cap = _cap_order(args, cocyclemod.DEFAULT_FIBER_CAP), _cap_group(args)
    with _cap_flag("--cap-group"):
        if s <= cap and n * s > group_cap:  # a fiber over its cap is refused first, below
            raise CapExceeded(f"extension order {n} * {s} exceeds the construction cap {group_cap}")
    with _cap_flag("--cap-order"):
        if abelian:
            alpha = cocyclemod.abelian_to_constant(alpha, cap=cap)
        elif s > cap:
            raise CapExceeded(f"fiber size {s} exceeds the fiber cap {cap}")
    ext = cocyclemod.extend(alpha)
    return {
        "base_order": alpha.base.order,
        "fiber": alpha.fiber_size,
        "extension": ext.to_json(),
    }, {}


def _h2(args, inputs):
    q = _source_quandle(args, inputs)
    moduli = _parse_moduli(args.coeff)
    cap = _cap_order(args, cocyclemod.DEFAULT_H2_CAP)
    with _cap_flag("--cap-order"):
        factors, reps = cocyclemod.compute_h2(q, moduli, max_order=cap)
    return {
        "moduli": list(moduli),
        "invariant_factors": list(factors),
        "representatives": [r.to_json() for r in reps],
    }, {}


def _union(args, inputs):
    spec = inputs.load_doc(args.specfile, ("union_spec",))
    return constructmod.union_quandle(spec).to_json(), {}


def _theorem(args, inputs):
    keys = ("max_order", "trials", "seed", "cap_order", "cap_group")
    options = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    report = theorems.run_suite(args.tid, options)
    return report, {"passed": report["passed"]}


def _arg(*names, **kwargs):
    """One add_argument call; a list of them is a required either-or group."""
    return names, kwargs


_COMMON_ARGS = (
    _arg("--pretty", action="store_true", help="aligned tables instead of JSON"),
    _arg("--cap-order", type=int, metavar="N", help="override order caps (automorphism search, "
         "enumeration, cohomology, abelian fibers)"),
    _arg("--cap-group", type=int, metavar="N", help="override the group-construction cap"),
)

_SOURCE_ARGS = (
    [_arg("--trivial", type=int, metavar="N"), _arg("--dihedral", type=int, metavar="N"),
     _arg("--conj", metavar="SPEC"), _arg("--core", metavar="SPEC"),
     _arg("--alexander", nargs=2, metavar=("SPEC", "AUTFILE")), _arg("--file", metavar="PATH")],
    _arg("--power", type=int, metavar="K", help="conjugation exponent, only with --conj"),
)

_Command = collections.namedtuple("_Command", "name help source arguments handler")

# Every subcommand, in --help order: name, help, whether it reads a quandle
# source, its own arguments, and its handler.
_COMMANDS = {command.name: command for command in (
    _Command("build", "construct a quandle and print it", True, (), _build),
    _Command("invariants", "orders, orbits and flags of a quandle", True, (), _invariants),
    _Command("aut", "automorphism group of a quandle", True, (), _group),
    _Command("inn", "inner automorphism group of a quandle", True, (), _group),
    _Command("qinn", "quasi-inner automorphism group of a quandle", True, (), _group),
    _Command("iso", "test two quandle files for isomorphism", False,
             (_arg("file1", metavar="FILE1"), _arg("file2", metavar="FILE2")), _iso),
    _Command("enumerate", "all isomorphism classes of a given order", False,
             (_arg("n", type=int, metavar="N"),), _enumerate),
    _Command("envelope", "enveloping-group computations", True, (
        [_arg("--abelianization", action="store_true"),
         _arg("--coset-enum", metavar="SUBGENS",
              help="JSON list of subgroup words in signed 1-based letters")],
        _arg("--max-cosets", type=int, metavar="M"),
    ), _envelope),
    _Command("extend", "extension quandle of a cocycle file", False,
             (_arg("cocyclefile", metavar="COCYCLEFILE"),), _extend),
    _Command("h2", "second cohomology with cyclic-sum coefficients", True,
             (_arg("--coeff", required=True, metavar="SPEC"),), _h2),
    _Command("union", "glue two quandles along a union spec file", False,
             (_arg("specfile", metavar="SPECFILE"),), _union),
    _Command("theorem", "run a named check suite", False, (
        _arg("tid", metavar="ID"), _arg("--max-order", type=int, metavar="N"),
        _arg("--trials", type=int, metavar="N"), _arg("--seed", type=int, metavar="N"),
    ), _theorem),
)}


def _add_arguments(target, specs) -> None:
    for spec in specs:
        if isinstance(spec, list):
            _add_arguments(target.add_mutually_exclusive_group(required=True), spec)
        else:
            names, kwargs = spec
            target.add_argument(*names, **kwargs)


def _build_parser() -> _Parser:
    """The top-level parser with a subparser for each command."""
    parser = _Parser(prog="quandlekit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    for command in _COMMANDS.values():
        _add_arguments(
            sub.add_parser(command.name, help=command.help),
            _COMMON_ARGS + (_SOURCE_ARGS if command.source else ()) + command.arguments,
        )
    return parser


_PARSER = _build_parser()


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
        sys.stdout.write(_canonical(report).decode() + "\n")


def run(argv) -> int:
    """Parse argv, execute, print one report; returns the exit code."""
    argv = list(argv)
    started = time.monotonic()
    try:
        args = _PARSER.parse_args(argv)
        if args.subcommand is None:
            _PARSER.error("a subcommand is required")
        inputs = _Inputs()
        results, checks = _COMMANDS[args.subcommand].handler(args, inputs)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (QuandleKitError, ValueError) as exc:
        print(f"quandlekit: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of quandlekit itself; 1 means a failed check
        print(f"quandlekit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
