"""Checks every report against an oracle that shares no code with quandlekit.

A query passes when its exit code is the expected one, its report parses,
and its results agree with the reference computation named by the query's
check.  A query with no independent oracle carries a key instead, and its
recorded_summary() must equal the seed commit's, which golden.json holds.
The summary keeps label-free answers only (orders, invariant factors, coset
indices, suite outcomes), so a change of generators, class representatives
or their order cannot fail a correct program.  Reference answers are cached
per base quandle, so the brute-force searches run once per run, not once
per relabeling.
"""

from __future__ import annotations

import hashlib
import json

import plan
import reference as ref


def results_digest(results) -> str:
    return hashlib.sha256(
        json.dumps(results, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


LABEL_FREE_INVARIANTS = ("order", "aut_order", "inn_order", "qinn_order", "connected",
                         "involutory")


def recorded_summary(argv, results):
    """The part of a query's results that golden.json pins."""
    cmd = argv[0]
    if cmd in ("aut", "inn", "qinn"):
        return {"order": results["order"]}
    if cmd == "invariants":
        summary = {field: results[field] for field in LABEL_FREE_INVARIANTS}
        summary["orbit_sizes"] = sorted(len(block) for block in results["orbits"])
        summary["center_size"] = len(results["center"])
        return summary
    if cmd == "envelope":
        return {"index": results["index"]}
    if cmd == "h2":
        return {"invariant_factors": results["invariant_factors"]}
    return {"digest": results_digest(results)}


def _failures_empty(value) -> bool:
    if isinstance(value, dict):
        if value.get("failures"):
            return False
        return all(_failures_empty(v) for v in value.values())
    if isinstance(value, list):
        return all(_failures_empty(v) for v in value)
    return True


def _signature(table):
    """A cheap isomorphism invariant: per element, its fixed-point and cycle profile."""
    n = len(table)
    per_element = []
    for y in range(n):
        column = [table[x][y] for x in range(n)]
        seen, lengths = [False] * n, []
        for start in range(n):
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = column[x]
                length += 1
            if length:
                lengths.append(length)
        row_fixed = sum(1 for v in table[y] if v == y)
        per_element.append((tuple(sorted(lengths)), row_fixed))
    return tuple(sorted(per_element))


class Checker:
    """Verifies query outcomes; holds the per-run caches of reference answers."""

    def __init__(self, golden, classes):
        self.golden = golden
        self.classes = classes
        self._facts = {}
        self._spans = {}
        self._enumerations = {}

    def facts(self, base):
        """Reference invariants of a base, or None above brute-force order 8."""
        base = tuple(base)
        if base not in self._facts:
            table = plan.base_table(base, self.classes)
            found = None
            if len(table) <= 8:
                found = ref.facts(table)
                ref.closed_form_checks(base[0], len(table), found)
            self._facts[base] = found
        return self._facts[base]

    def span_order(self, degree, generators):
        key = (degree, tuple(map(tuple, generators)))
        if key not in self._spans:
            self._spans[key] = len(ref.generated([tuple(g) for g in generators], degree))
        return self._spans[key]

    def check(self, query, rc, stdout):
        """None when the outcome is right, else a one-line reason."""
        try:
            report = json.loads(stdout)
            results = report["results"]
        except (ValueError, KeyError, TypeError):
            return f"exit {rc}, report does not parse"
        key = query.get("key")
        if key is not None:
            recorded = self.golden.get(key)
            if recorded is None:
                return f"no recorded result for {key!r}"
            try:
                summary = recorded_summary(query["argv"], results)
            except (KeyError, TypeError):
                return "results lack a recorded field"
            if summary != recorded:
                return f"{summary} differs from the seed commit's {recorded}"
        expected_rc, problem = getattr(self, "_" + query["check"])(query, results, report)
        if problem is None and rc != expected_rc:
            problem = f"exit {rc}, expected {expected_rc}"
        return problem

    # --- one method per check kind; each returns (expected exit, problem) ---

    def _group(self, q, res, _report):
        facts = self.facts(q["base"])
        n = len(plan.base_table(q["base"], self.classes))
        if res["degree"] != n:
            return 0, "wrong degree"
        if facts is not None and res["order"] != facts[f"{q['cmd']}_order"]:
            return 0, f"order {res['order']}, expected {facts[q['cmd'] + '_order']}"
        gens = res["generators"]
        if not all(sorted(g) == list(range(n)) for g in gens):
            return 0, "a generator is not a permutation"
        table = q["table"]
        if table is not None:
            if not all(ref.preserves(table, g) for g in gens):
                return 0, "a generator is not an automorphism"
            if q["cmd"] == "qinn":
                where = {x: i for i, block in enumerate(ref.orbits(table)) for x in block}
                if any(where[g[x]] != where[x] for g in gens for x in range(n)):
                    return 0, "a quasi-inner generator leaves its orbit"
        if self.span_order(n, gens) != res["order"]:
            return 0, "generators do not span the reported order"
        return 0, None

    def _invariants(self, q, res, _report):
        facts = self.facts(q["base"])
        if facts is None:
            return 0, None
        for field in LABEL_FREE_INVARIANTS:
            if res[field] != facts[field]:
                return 0, f"{field} {res[field]!r}, expected {facts[field]!r}"
        table = q["table"]
        if table is not None:
            if sorted(sorted(block) for block in res["orbits"]) != ref.orbits(table):
                return 0, "orbits differ"
            if sorted(res["center"]) != [x for x in range(len(table))
                                         if all(v == x for v in table[x])]:
                return 0, "center differs"
        else:
            sizes = sorted(len(b) for b in facts["orbits"])
            if sorted(len(b) for b in res["orbits"]) != sizes:
                return 0, "orbit sizes differ"
            if len(res["center"]) != len(facts["center"]):
                return 0, "center size differs"
        return 0, None

    def _iso(self, q, res, _report):
        t1, t2 = q["table1"], q["table2"]
        iso = ref.count_isomorphisms(t1, t2, stop_at=1) > 0
        if res["isomorphic"] != iso:
            return (0 if iso else 1), f"isomorphic={res['isomorphic']}, expected {iso}"
        witness = res["witness"]
        if iso:
            if sorted(witness) != list(range(len(t1))) or not ref.maps_onto(t1, t2, witness):
                return 0, "witness is not an isomorphism"
            return 0, None
        return 1, None if witness is None else "witness given for non-isomorphic pair"

    def _enumerate(self, q, res, _report):
        digest = results_digest(res)
        if digest not in self._enumerations:
            self._enumerations[digest] = self._check_classes(q["n"], res)
        return 0, self._enumerations[digest]

    @staticmethod
    def _check_classes(n, res):
        tables = res["tables"]
        if res["count"] != ref.CLASS_COUNTS[n] or len(tables) != res["count"]:
            return f"{res['count']} classes, expected {ref.CLASS_COUNTS[n]}"
        if not all(len(t) == n and ref.is_quandle(t) for t in tables):
            return "a table is not a quandle"
        buckets = {}
        for t in tables:
            buckets.setdefault(_signature(t), []).append(t)
        for bucket in buckets.values():
            for i, a in enumerate(bucket):
                for b in bucket[i + 1:]:
                    if ref.count_isomorphisms(a, b, stop_at=1):
                        return "two listed classes are isomorphic"
        return None

    def _abelianization(self, q, res, _report):
        table = q["table"]
        if res["generators"] != len(table):
            return 0, "wrong generator count"
        if res["free_rank"] != len(ref.orbits(table)) or res["torsion"] != []:
            return 0, f"abelianization {res['free_rank']}, {res['torsion']}; expected free"
        return 0, None

    def _coset(self, q, res, _report):
        if res["generators"] != q["n"] or not res["index"] >= 1:
            return 0, "malformed coset report"
        return 0, None

    def _h2(self, q, res, _report):
        moduli = q["moduli"]
        factors = res["invariant_factors"]
        if res["moduli"] != moduli:
            return 0, "wrong coefficient moduli"
        if q["base"][0] == "trivial":
            expected = ref.trivial_h2_factors(q["base"][1], moduli)
            if factors != expected:
                return 0, f"factors {factors}, expected {expected}"
        reps = res["representatives"]
        if len(reps) != len(factors):
            return 0, "one representative per factor expected"
        for rep in reps:
            table = rep["base"]["table"]
            if q["table"] is not None and table != q["table"]:
                return 0, "representative over the wrong base"
            if not ref.is_quandle(table) or not ref.is_abelian_cocycle(table, moduli, rep["table"]):
                return 0, "representative is not a cocycle"
        return 0, None

    def _extend(self, q, res, _report):
        if res["base_order"] != q["n"] or res["fiber"] != q["fiber"]:
            return 0, "wrong base order or fiber"
        if res["extension"]["table"] != q["expected"]:
            return 0, "extension table differs from the reference"
        return 0, None

    def _union(self, q, res, _report):
        if res["table"] != q["expected"]:
            return 0, "union table differs from the reference"
        return 0, None

    def _suite(self, q, res, report):
        if not (res.get("passed") and report.get("passed")):
            return 0, "suite did not pass"
        if not all(case.get("passed") for case in res["cases"]) or not _failures_empty(res):
            return 0, "a suite case failed"
        return 0, None
