"""Seeded query lists for the three workloads.

A round is one list of `quandlekit` invocations plus the input files they
read.  Everything is drawn from random.Random(f"{workload}:{seed}:{round}"),
so a (workload, seed, round) triple always yields the same argv and the
same file bytes, while relabelings, twists and suite seeds differ between
rounds and seeds.  The set of families in a round, and hence its cost, does
not depend on the seed.

Each query names the check that verifies it (see verify.py).  Queries with
no independent oracle also carry the key of the answer recorded in
golden.json; they are drawn from RECORDED, which record_golden.py records
in full.
"""

from __future__ import annotations

import itertools
import json
import random

import reference as ref

WORKLOADS = ("aut-groups", "classify", "cohomology")

CATALOG = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ2xZ2", "S3", "D4", "Q8")
COEFFS = ("Z2", "Z3", "Z4", "Z2xZ3")

# Bases relabeled into --file inputs on aut-groups; iso pairs come from here.
RELABEL_POOL = (
    ("dihedral", 5), ("dihedral", 6), ("dihedral", 7), ("dihedral", 8),
    ("conj", "S3"), ("conj", "D4"), ("conj", "Q8"),
    ("core", "D4"), ("core", "Q8"), ("core", "Z6"),
)

# A seeded draw never changes how much work a query slot does: the timing
# metrics take each slot's median over rounds, and a draw between a cheap
# and a dear option would move that median from seed to seed.  So suite
# sizes, trial counts, alexander units and class choices are fixed; only
# relabelings, twists, suite seeds and subgroup words are drawn.
SUITES = {tid: ["--max-order", "7"] for tid in ("4.3", "4.4", "4.5", "4.6", "5.1", "5.2")}
SUITES.update({tid: [] for tid in ("5.3", "5.4", "5.5", "5.6", "5.7", "8.3", "8.4")})
SUITES.update({tid: ["--max-order", "5"] for tid in ("6.3", "3.3", "8.2")})
SUITES.update({tid: [] for tid in ("3.1", "7.3", "9.1")})
SUITE_SEEDS = tuple(range(101, 117))
SEEDED_SUITES = {"7.1": "120", "9.2": "200"}
ALEXANDER_UNITS = ((5, 2), (7, 3))
# Class indices (in `enumerate` order) relabeled by classify, and
# non-isomorphic pairs among them.
CLASS_SLOTS = {5: (0, 3, 6, 9, 12, 15, 18, 21), 6: (0, 9, 18, 27, 36, 45, 54, 63)}
NONISO_PAIRS = {5: ((1, 2), (5, 11), (17, 20)), 6: ((1, 2), (30, 31), (60, 72))}

# Subgroup words for coset enumeration in As(R_n); each has finite index.
WORD_POOL = ("[[1,1]]", "[[1,2]]", "[[2,1]]", "[[2,3]]", "[[1,3]]")
COSET_ORDERS = (3, 5, 7, 9, 11)
MAX_COSETS = "2000"

# h2 queries on flag sources: (source flag, value, coefficient).
H2_FLAG_QUERIES = (
    [("--trivial", n, c) for n in (3, 4, 5, 6) for c in COEFFS]
    + [("--dihedral", n, c) for n in (3, 4, 5, 6) for c in COEFFS]
    + [("--dihedral", 7, "Z2"), ("--conj", "S3", "Z2"), ("--conj", "S3", "Z3"),
       ("--core", "Z3", "Z4"), ("--core", "Z2xZ2", "Z2xZ3"), ("--core", "Z5", "Z2")]
)
# Relabeled h2 bases with a fixed coefficient each, so cost is seed-free.
# Each pair is also an H2_FLAG_QUERIES entry, whose recorded factors it uses.
H2_RELABELED = ((("dihedral", 4), "Z4"), (("dihedral", 5), "Z2xZ3"),
                (("dihedral", 6), "Z3"), (("conj", "S3"), "Z2"))
# Conj(S4) has order 24, beyond the brute-force oracle.
S4_QUERIES = (["aut", "--conj", "S4", "--cap-order", "24"], ["inn", "--conj", "S4"],
              ["invariants", "--conj", "S4", "--cap-order", "24"])


def _recorded():
    """Family -> the argvs a round may draw for it, for every query checked
    against golden.json.  The builders draw from these lists and
    record_golden.py records every entry, so the two cannot drift apart."""
    families = {" ".join(argv): [argv] for argv in S4_QUERIES}
    for n in COSET_ORDERS:
        families[f"coset {n}"] = [["envelope", "--dihedral", str(n), "--coset-enum", words,
                                   "--max-cosets", MAX_COSETS] for words in WORD_POOL]
    for flag, value, coeff in H2_FLAG_QUERIES:
        if flag != "--trivial":
            argv = ["h2", flag, str(value), "--coeff", coeff]
            families[" ".join(argv)] = [argv]
    for tid, opts in SUITES.items():
        families[f"theorem {tid}"] = [["theorem", tid] + opts]
    for tid, trials in SEEDED_SUITES.items():
        families[f"theorem {tid}"] = [["theorem", tid, "--seed", str(s), "--trials", trials]
                                      for s in SUITE_SEEDS]
    return families


RECORDED = _recorded()


def base_table(base, classes=None):
    """The reference table of a base descriptor such as ("dihedral", 5)."""
    kind = base[0]
    if kind == "trivial":
        return ref.trivial_table(base[1])
    if kind == "dihedral":
        return ref.dihedral_table(base[1])
    if kind == "conj":
        return ref.conj_table(base[1])
    if kind == "core":
        return ref.core_table(base[1])
    if kind == "alexander":
        return ref.alexander_table(base[1], base[2])
    if kind == "class":
        return classes[str(base[1])][base[2]]
    raise ValueError(f"unknown base {base!r}")


def quandle_doc(table):
    return {"kind": "quandle", "order": len(table), "table": table}


def moduli_of(coeff):
    return [int(token[1:]) for token in coeff.split("x")]


def _shuffle(rng, n):
    while True:
        sigma = list(range(n))
        rng.shuffle(sigma)
        if n < 2 or sigma != list(range(n)):
            return sigma


class Round:
    """Accumulates the queries and files of one round."""

    def __init__(self, workload, seed, index, workdir, classes):
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.dir = f"{workdir}/r{index}"
        self.classes = classes
        self.queries = []
        self.files = {}

    def file(self, doc):
        path = f"{self.dir}/f{len(self.files):03d}.json"
        self.files[path] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return path

    def relabeled(self, base):
        """Write a seeded relabeling of a base; returns (path, table)."""
        table = base_table(base, self.classes)
        out = ref.relabel(table, _shuffle(self.rng, len(table)))
        return self.file(quandle_doc(out)), out

    def add(self, argv, check, key=None, **params):
        self.queries.append({"argv": [str(a) for a in argv], "check": check,
                             "key": key, **params})

    def recorded(self, family, check, **params):
        """Draw one argv of a RECORDED family; its answer is checked against golden.json."""
        argv = self.rng.choice(RECORDED[family])
        self.add(argv, check, key=" ".join(argv), **params)


def _check_of(cmd):
    return "invariants" if cmd == "invariants" else "group"


def aut_groups(r):
    # The flag sources give the same table to each command, so a later
    # query may meet a table an earlier one in the same process has seen.
    for cmd in ("aut", "inn", "qinn", "invariants"):
        for kind, sizes in (("trivial", range(3, 8)), ("dihedral", range(3, 9))):
            for n in sizes:
                r.add([cmd, f"--{kind}", n], _check_of(cmd), cmd=cmd, base=(kind, n),
                      table=base_table((kind, n)))
    r.add(["aut", "--trivial", 8], "group", cmd="aut", base=("trivial", 8),
          table=base_table(("trivial", 8)))
    for spec in CATALOG:
        for kind in ("conj", "core"):
            for cmd in ("aut", "inn", "invariants"):
                if spec == "Z2xZ2xZ2" and cmd != "inn":
                    continue
                # The library's labels of Conj(G) and Core(G) are its own, so
                # only label-free answers are checked here.
                r.add([cmd, f"--{kind}", spec], _check_of(cmd), cmd=cmd, base=(kind, spec),
                      table=None)
    for argv in S4_QUERIES:
        r.recorded(" ".join(argv), _check_of(argv[0]), cmd=argv[0], base=("conj", "S4"),
                   table=None)
    for n, u in ALEXANDER_UNITS:
        autfile = r.file([(u * x) % n for x in range(n)])
        for cmd in ("aut", "invariants"):
            r.add([cmd, "--alexander", f"Z{n}", autfile], _check_of(cmd), cmd=cmd,
                  base=("alexander", n, u), table=ref.alexander_table(n, u))
    for base in RELABEL_POOL:
        for cmd in ("aut", "qinn", "invariants"):
            path, table = r.relabeled(base)
            r.add([cmd, "--file", path], _check_of(cmd), cmd=cmd, base=base, table=table)
    pairs = [(b, b) for b in RELABEL_POOL[:6]]
    for order in (6, 8):
        same = [b for b in RELABEL_POOL if len(base_table(b)) == order]
        pairs += list(itertools.combinations(same, 2))
    for a, b in pairs:
        _iso_query(r, a, b)
    for tid in ("4.3", "4.4", "4.5", "4.6", "5.1", "5.2", "5.3", "5.4", "5.5", "5.6", "5.7",
                "8.3", "8.4"):
        r.recorded(f"theorem {tid}", "suite")


def _iso_query(r, a, b):
    path_a, table_a = r.relabeled(a)
    path_b, table_b = r.relabeled(b)
    r.add(["iso", path_a, path_b], "iso", table1=table_a, table2=table_b)


def classify(r):
    for n in (3, 4, 5, 6):
        r.add(["enumerate", n], "enumerate", n=n)
    for tid in ("6.3", "3.3", "8.2"):
        r.recorded(f"theorem {tid}", "suite")
    for order in (5, 6):
        for i in CLASS_SLOTS[order]:
            base = ("class", order, i)
            _iso_query(r, base, base)
            path, table = r.relabeled(base)
            r.add(["invariants", "--file", path], "invariants", cmd="invariants",
                  base=base, table=table)
            path, table = r.relabeled(base)
            r.add(["envelope", "--file", path, "--abelianization"], "abelianization",
                  table=table)
        for i, j in NONISO_PAIRS[order]:
            _iso_query(r, ("class", order, i), ("class", order, j))


def _random_constant_cocycle(r, base, fiber):
    """A seeded cocycle: a constant off-diagonal permutation, then twisted."""
    table = base_table(base)
    n = len(table)
    identity = tuple(range(fiber))
    perms = list(itertools.permutations(range(fiber)))
    candidates = [[[identity] * n for _ in range(n)]]
    for c in perms[1:]:
        alpha = [[identity if x == y else c for y in range(n)] for x in range(n)]
        if ref.is_constant_cocycle(table, fiber, alpha):
            candidates.append(alpha)
    alpha = r.rng.choice(candidates)
    lam = [r.rng.choice(perms) for _ in range(n)]
    return table, ref.twist(table, alpha, lam)


def _random_abelian_cocycle(r, base, moduli):
    """A zero-diagonal table on a trivial base, else a coboundary x -> f(x) - f(x*y)."""
    table = base_table(base)
    n = len(table)
    if base[0] == "trivial":
        return table, [[[0] * len(moduli) if x == y else [r.rng.randrange(m) for m in moduli]
                        for y in range(n)] for x in range(n)]
    f = [[r.rng.randrange(m) for m in moduli] for _ in range(n)]
    return table, [[[(a - b) % m for a, b, m in zip(f[x], f[table[x][y]], moduli)]
                    for y in range(n)] for x in range(n)]


def cohomology(r):
    for flag, value, coeff in H2_FLAG_QUERIES:
        base = (flag[2:], value)
        params = {"base": base, "moduli": moduli_of(coeff),
                  "table": base_table(base) if flag in ("--trivial", "--dihedral") else None}
        if flag == "--trivial":
            r.add(["h2", flag, value, "--coeff", coeff], "h2", **params)
        else:
            r.recorded(f"h2 {flag} {value} --coeff {coeff}", "h2", **params)
    for base, coeff in H2_RELABELED:
        path, table = r.relabeled(base)
        r.add(["h2", "--file", path, "--coeff", coeff], "h2", base=base,
              moduli=moduli_of(coeff), table=table,
              key=f"h2 --{base[0]} {base[1]} --coeff {coeff}")
    for n in COSET_ORDERS:
        r.recorded(f"coset {n}", "coset", n=n)
    for base, fiber in ((("trivial", 2), 3), (("trivial", 3), 2), (("trivial", 4), 2),
                        (("dihedral", 3), 3), (("dihedral", 4), 2)):
        table, alpha = _random_constant_cocycle(r, base, fiber)
        doc = {"kind": "constant_cocycle", "base": quandle_doc(table), "fiber": fiber,
               "table": [[list(p) for p in row] for row in alpha]}
        r.add(["extend", r.file(doc)], "extend",
              expected=ref.constant_extension(table, fiber, alpha), fiber=fiber, n=len(table))
    for base, moduli in ((("trivial", 3), [2, 3]), (("dihedral", 4), [4]),
                         (("dihedral", 5), [3])):
        table, phi = _random_abelian_cocycle(r, base, moduli)
        doc = {"kind": "abelian_cocycle", "base": quandle_doc(table), "moduli": moduli,
               "table": phi}
        fiber = 1
        for m in moduli:
            fiber *= m
        r.add(["extend", r.file(doc)], "extend",
              expected=ref.abelian_extension(table, moduli, phi), fiber=fiber, n=len(table))
    for base in (("dihedral", 3), ("dihedral", 5), ("core", "Z2xZ2"), ("core", "S3")):
        table = ref.relabel(base_table(base), _shuffle(r.rng, len(base_table(base))))
        columns = [[table[z][x] for z in range(len(table))] for x in range(len(table))]
        spec = {"kind": "union_spec", "q1": quandle_doc(table), "q2": quandle_doc(table),
                "sigma": columns, "tau": columns}
        r.add(["union", r.file(spec)], "union", expected=ref.involutory_double(table))
    for tid in ("3.1", "7.3", "9.1", "7.1", "9.2"):
        r.recorded(f"theorem {tid}", "suite")


BUILDERS = {"aut-groups": aut_groups, "classify": classify, "cohomology": cohomology}


def make_round(workload, seed, index, workdir, classes):
    """The queries and files of one round; files map relative path -> JSON text.

    The builders emit each family as a block.  The round runs them in one
    fixed shuffled order, the same for every seed and round, so the cheap
    queries are spread over the round.  Otherwise they all run within a
    fraction of a second, and the median latency of a round would sample
    the shared machine's speed at one moment only.
    """
    r = Round(workload, seed, index, workdir, classes)
    BUILDERS[workload](r)
    order = list(range(len(r.queries)))
    random.Random(f"order:{workload}").shuffle(order)
    return [r.queries[i] for i in order], r.files

