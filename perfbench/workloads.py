"""The benchmark's three workloads: fixed `wfk` CLI queries with answers known
from the mathematics, and seeded random probes through the public API.

Query checks run in the harness on the query's stdout and never call wfk.
Probe inputs are plain integers drawn from the seed; the probe functions
import wfk when they run, inside a worker process.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# -- known answers for query output -------------------------------------------


def _suite_passes(out: str) -> str | None:
    data = json.loads(out)
    bad = [p["probe"] for p in data["probes"] if not p["equal"]]
    if bad or data["pass"] is not True:
        return f"suite reports pass={data['pass']}; unequal probes: {bad[:3]}"
    if not data["probes"]:
        return "suite ran no probes"
    return None


def _mckay(affine_type: str, order: int) -> Callable[[str], str | None]:
    """Affine Cartan matrix C of the given type with C.marks = 0, marks the
    irreducible degrees (so sum of squares = |G|) and one trivial mark."""

    def check(out: str) -> str | None:
        data = json.loads(out)
        c, marks = data["matrix"], data["marks"]
        r = len(marks)
        if data["type"] != affine_type:
            return f"type {data['type']} != {affine_type}"
        if len(c) != r or any(len(row) != r for row in c):
            return "Cartan matrix shape does not match the marks"
        if any(c[i][i] != 2 or c[i][j] != c[j][i] for i in range(r) for j in range(r)):
            return "Cartan matrix is not symmetric with diagonal 2"
        if any(sum(c[i][j] * marks[j] for j in range(r)) for i in range(r)):
            return "C.marks != 0"
        if sum(m * m for m in marks) != order or 1 not in marks:
            return f"marks {marks} do not fit a group of order {order}"
        return None

    return check


def _cyc_value(entry: dict) -> complex:
    n = entry["conductor"]
    return sum(Fraction(int(num), int(den)) * cmath.exp(2j * math.pi * k / n)
               for k, (num, den) in enumerate(entry["coeffs"]))


def _character_table(order: int, degrees: list[int]) -> Callable[[str], str | None]:
    """Column orthogonality, evaluated in floating point: the columns are
    orthogonal, each column norm is a centralizer order, and the class sizes
    |G|/|C(g)| add up to |G| (so the table is complete)."""

    def check(out: str) -> str | None:
        data = json.loads(out)
        if data["degrees"] != degrees:
            return f"degrees {data['degrees']} != {degrees}"
        table = [[_cyc_value(v) for v in row] for row in data["table"]]
        r = len(table)
        if any(len(row) != r for row in table):
            return "table is not square"
        if any(abs(table[i][0] - degrees[i]) > 1e-9 for i in range(r)):
            return "first column is not the degrees"
        class_sum = 0.0
        for a in range(r):
            for b in range(r):
                dot = sum(table[i][a] * table[i][b].conjugate() for i in range(r))
                if a != b and abs(dot) > 1e-9:
                    return f"columns {a} and {b} are not orthogonal"
                if a == b:
                    cent = round(dot.real)
                    if abs(dot - cent) > 1e-9 or cent < 1 or order % cent:
                        return f"column {a} norm {dot} is not a centralizer order"
                    class_sum += order // cent
        if class_sum != order:
            return f"class sizes add up to {class_sum}, not {order}"
        return None

    return check


def _gottsche(betti: tuple[int, ...], order: int) -> Callable[[str], str | None]:
    """Goettsche's formula, expanded here with integer polynomials:
    sum_n P(S^[n], t) q^n = prod_k prod_i (1 - (-1)^i t^(2k-2+i) q^k)^(-(-1)^i b_i)."""

    def expected() -> dict:
        series = {(0, 0): 1}
        for k in range(1, order + 1):
            for i, b in enumerate(betti):
                e = 2 * k - 2 + i
                factor = {}
                for j in range(order // k + 1):
                    c = math.comb(b + j - 1, j) if i % 2 == 0 else math.comb(b, j)
                    if c:
                        factor[(k * j, e * j)] = c
                product: dict = {}
                for (q1, t1), c1 in series.items():
                    for (q2, t2), c2 in factor.items():
                        if q1 + q2 <= order:
                            key = (q1 + q2, t1 + t2)
                            product[key] = product.get(key, 0) + c1 * c2
                series = product
        out = {f"q^{n}": {} for n in range(order + 1)}
        for (q, t), c in series.items():
            if c:
                out[f"q^{q}"][f"t^{t}"] = str(c)
        return out

    def check(out: str) -> str | None:
        return None if json.loads(out) == expected() else "series differs from Goettsche's formula"

    return check


def _orbifold_series(values: list[int]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        reason = _suite_passes(out)
        lhs = [int(p["lhs"]) for p in json.loads(out)["probes"]]
        if lhs != values:
            return f"orbifold Euler numbers {lhs} != {values}"
        return reason

    return check


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    known_defect: str = ""  # why this query fails at the commit that added it

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _q(*argv: str, check=_suite_passes, known_defect: str = "") -> Query:
    return Query(tuple(argv), check, known_defect)


SL2_QUERIES = [
    _q("mckay", "--group", "builtin:cyclic:2", check=_mckay("A1~", 2)),
    _q("mckay", "--group", "builtin:cyclic:5", check=_mckay("A4~", 5)),
    _q("mckay", "--group", "builtin:binary-dihedral:2", check=_mckay("D4~", 8)),
    _q("mckay", "--group", "builtin:binary-dihedral:3", check=_mckay("D5~", 12)),
    _q("mckay", "--group", "builtin:binary-dihedral:5", check=_mckay("D7~", 20)),
    _q("mckay", "--group", "builtin:binary-tetrahedral", check=_mckay("E6~", 24)),
    _q("mckay", "--group", "builtin:binary-octahedral", check=_mckay("E7~", 48)),
    _q("mckay", "--group", "builtin:binary-icosahedral", check=_mckay("E8~", 120)),
    _q("chartable", "--group", "builtin:cyclic:16", check=_character_table(16, [1] * 16)),
    _q("chartable", "--group", "builtin:symmetric:5",
       check=_character_table(120, [1, 1, 4, 4, 5, 5, 6])),
    _q("verify", "koszul-thom", "--group", "builtin:cyclic:2", "--n", "3"),
    _q("verify", "koszul-thom", "--group", "builtin:cyclic:3", "--n", "3"),
]

EXTERIOR2_DEFECT = (
    "fock.heisenberg_check brackets odd x odd mode pairs with the plain commutator "
    "instead of the supercommutator, so the exterior2 suite reports pass=false")

FOCK_QUERIES = [
    _q("fock", "verify", "--model", "builtin:p2", "--suite", "heisenberg",
       "--modes", "2", "--cutoff", "3"),
    _q("fock", "verify", "--model", "builtin:p2", "--suite", "virasoro",
       "--modes", "2", "--cutoff", "4"),
    _q("fock", "verify", "--model", "builtin:exterior2", "--suite", "heisenberg",
       "--modes", "2", "--cutoff", "4", known_defect=EXTERIOR2_DEFECT),
    _q("series", "gottsche", "--betti", "1,2,1,2,1", "--order", "10",
       check=_gottsche((1, 2, 1, 2, 1), 10)),
    _q("verify", "heisenberg-transport", "--group", "builtin:cyclic:3", "--modes", "3"),
]

WREATH_QUERIES = [
    _q("verify", "fw-virasoro", "--group", "builtin:cyclic:2", "--levels", "3"),
    _q("verify", "heisenberg", "--group", "builtin:cyclic:2", "--modes", "2", "--levels", "2"),
    _q("verify", "conv-cubic", "--n", "8"),
    _q("verify", "lehn-sorger", "--n", "6"),
    _q("series", "orbifold-euler", "--group", "builtin:cyclic:2", "--points", "1",
       "--nmax", "5", check=_orbifold_series([1, 2, 5, 10, 20, 36])),
]

# sha256 of each query's stdout at the commit that added the benchmark: CLI
# output must stay byte-identical.  A query with a known defect has none,
# because its output at that commit is wrong.
DIGESTS: dict[str, str] = {
    "mckay --group builtin:cyclic:2":
        "24be28c251e5094116a453abc4d4fd9ea08af5b0e55ceed35412c4fc8ae8b9ef",
    "mckay --group builtin:cyclic:5":
        "6bedbd2c8f82a9d2380ba2fa73e99886b31aeaa9c4407132ddd7f564edc24e43",
    "mckay --group builtin:binary-dihedral:2":
        "e76f9e0122e0a8de3fbf6691d48c28d24ad0676c04d82f29aa5e282e5781d47c",
    "mckay --group builtin:binary-dihedral:3":
        "8421b0530b804e15c7e838aa0c4a4ea58e49b451f10b4fde39f3efd7cb9c52ce",
    "mckay --group builtin:binary-dihedral:5":
        "6c396b4ee32a1c9582a3390fb6af9e4f9331126ce22852cd1f5c61ef01f876ac",
    "mckay --group builtin:binary-tetrahedral":
        "5ef72ad3d25c4e50787f69cf3d2ece8ace4dd3fedd7a8b3a0baffa484323d877",
    "mckay --group builtin:binary-octahedral":
        "1459f583ba4517d4e881fa00290e83414111f647fddea126f600fa035f4e48a3",
    "mckay --group builtin:binary-icosahedral":
        "b5fd5195858d62c94cc0533e1d8804870565a2ba09f7d65e2fe8808d9773c752",
    "chartable --group builtin:cyclic:16":
        "27093c7ed028f6a0f03f52ee9d50c8632e62e3c806bef288bbd48371a5e46087",
    "chartable --group builtin:symmetric:5":
        "7fd73948c24af0fdfda21773d9c003d1828dbe16fc95feb5d7de09120e9552ee",
    "verify koszul-thom --group builtin:cyclic:2 --n 3":
        "fdbcecaa78db3f5684d06d78d53b35b80f2790d89f9db4a6ef34ea3d35df99d9",
    "verify koszul-thom --group builtin:cyclic:3 --n 3":
        "060532c5e8790d4738c26fc8de6997c2d51053fa783d0f4779c8dca873aa1a78",
    "fock verify --model builtin:p2 --suite heisenberg --modes 2 --cutoff 3":
        "4ae88b7de2eef3afd155c5e2aa4e1be2130c6b5998943442bb4b08aa8262a9fc",
    "fock verify --model builtin:p2 --suite virasoro --modes 2 --cutoff 4":
        "5ee0cc33986a9122a584741e2b0895d9a2c5ddc2858b5ce11261b36334308d98",
    "series gottsche --betti 1,2,1,2,1 --order 10":
        "8e866407caa058302a665b4cd2e41255c6d3ff9b631e093640301b48edd795f5",
    "verify heisenberg-transport --group builtin:cyclic:3 --modes 3":
        "1d5b519c4e4baf5cd5b4c612ad77667572525dbedd49133a481779a1ed9c13c6",
    "verify fw-virasoro --group builtin:cyclic:2 --levels 3":
        "bd3e5a67d24a692d072728d07be0708f86a7e2cb3d8fb00d93413d06edef3fb9",
    "verify heisenberg --group builtin:cyclic:2 --modes 2 --levels 2":
        "c212609372d3b274510ceae46780fe5fdd5fb7c0bcab9a9da4facbfd0a90a93e",
    "verify conv-cubic --n 8":
        "96476985d2b0d9d17a03bfa5c76093c46f13cf1a12b83555f82e0c800564949c",
    "verify lehn-sorger --n 6":
        "ab9f64bcfc836241f19afe8b222fe831c6ee0a4ddfa731856f0b564645865b81",
    "series orbifold-euler --group builtin:cyclic:2 --points 1 --nmax 5":
        "96280ade9ad8b8e9e4d5874499084d6e78e25a2f8b4f80c7d8897bf767da64c3",
}


# -- seeded probes --------------------------------------------------------------

def _small(rng: random.Random, k: int) -> list[int]:
    return [rng.choice((-2, -1, 1, 2)) for _ in range(k)]


SL2_PROBE_GROUPS = ("binary-icosahedral", "binary-octahedral", "binary-tetrahedral",
                    "binary-dihedral:5", "symmetric:5", "cyclic:16")
SL2_PROBES = 18
MAX_CLASSES = 16  # no group in SL2_PROBE_GROUPS has more conjugacy classes


def _sl2_inputs(rng: random.Random) -> list:
    return [(SL2_PROBE_GROUPS[i % len(SL2_PROBE_GROUPS)],
             _small(rng, MAX_CLASSES), _small(rng, MAX_CLASSES)) for i in range(SL2_PROBES)]


def _sl2_probe(inp) -> str | None:
    """Virtual characters f = sum a_k chi_k, g = sum b_k chi_k: <f,f> = sum a_k^2,
    and the tensor product f g decomposes with integer multiplicities that
    re-sum to f g exactly."""
    from wfk.groups import builtin_group, inner_product

    name, a, b = inp
    irr = builtin_group(f"builtin:{name}").character_table().irreducibles
    f, g = irr[0].scale(a[0]), irr[0].scale(b[0])
    for k in range(1, len(irr)):
        f, g = f + irr[k].scale(a[k]), g + irr[k].scale(b[k])
    if inner_product(f, f) != sum(x * x for x in a[:len(irr)]):
        return f"<f,f> != sum of squared coefficients on {name}"
    fg = f.pointwise(g)
    mults = [inner_product(fg, chi) for chi in irr]
    if not all(m.is_rational() and m.as_rational().denominator == 1 for m in mults):
        return f"non-integral tensor multiplicity on {name}"
    resum = irr[0].scale(mults[0])
    for m, chi in zip(mults[1:], irr[1:]):
        resum = resum + chi.scale(m)
    return None if resum == fg else f"decomposition does not re-sum on {name}"


FOCK_MODES = 2
FOCK_WEIGHT = 2
FOCK_BASIS = 3  # dimension of the p2 model


def _fock_inputs(rng: random.Random) -> list:
    # every (n, m) pair once: only the coefficients depend on the seed
    return [(n, m, _small(rng, FOCK_BASIS), _small(rng, FOCK_BASIS), _small(rng, 64))
            for n in range(-FOCK_MODES, FOCK_MODES + 1)
            for m in range(-FOCK_MODES, FOCK_MODES + 1)]


def _fock_probe(inp) -> str | None:
    """[L_n(a), L_m(b)] v = (n-m) L_{n+m}(ab) v + (n^3-n)/12 d_{n+m} tr(e ab) v
    on p2, for random elements a, b and a random vector v of weight <= 2."""
    from wfk.fock import ColorSpace, FockVector, W_operator, builtin_model, monomial_basis

    n, m, ca, cb, cv = inp
    alg = builtin_model("p2")
    space = ColorSpace.of_algebra(alg)
    a = tuple(Fraction(x) for x in ca)
    b = tuple(Fraction(x) for x in cb)
    monos = [mono for w in range(FOCK_WEIGHT + 1) for mono in monomial_basis(space, w)]
    v = FockVector(space, dict(zip(monos, cv)))
    cap = FOCK_WEIGHT + 2 * FOCK_MODES + 2
    ln, lm = W_operator(alg, 2, n, a, cap, space), W_operator(alg, 2, m, b, cap, space)
    ab = alg.mul(a, b)
    central = (Fraction(n ** 3 - n, 12) * alg.trace(alg.mul(alg.euler, ab))
               if n + m == 0 else Fraction(0))
    lhs = ln.apply(lm.apply(v)) - lm.apply(ln.apply(v))
    rhs = W_operator(alg, 2, n + m, ab, cap, space).apply(v).scale(n - m) + v.scale(central)
    return None if lhs == rhs else f"Virasoro bracket fails for n={n}, m={m}"


# (base group, level of f, level of g): isometry and round trip run at level
# f + g, induction against the element-loop oracle at (f, g)
WREATH_PROBE_CASES = (("cyclic:2", 1, 2), ("cyclic:2", 2, 1), ("cyclic:3", 1, 1),
                      ("cyclic:2", 2, 2), ("cyclic:3", 1, 2), ("cyclic:2", 1, 3))
WREATH_PROBES = 12
MAX_TYPES = 64  # no level in WREATH_PROBE_CASES has more types


def _wreath_inputs(rng: random.Random) -> list:
    return [(WREATH_PROBE_CASES[i % len(WREATH_PROBE_CASES)],
             _small(rng, MAX_TYPES), _small(rng, MAX_TYPES)) for i in range(WREATH_PROBES)]


def _wreath_probe(inp) -> str | None:
    """ch is an isometry (<f,g> on Gamma_N equals the colored Fock pairing),
    ch_inverse(ch f) == f, and symbolic induction equals the element-loop sum."""
    from wfk.charmap import ch, ch_inverse, colored_pairing
    from wfk.groups import builtin_group
    from wfk.wreath import (WreathClassFunction, enumerate_types, induce,
                            induce_bruteforce, wreath_pairing)

    (name, n, m), cf, cg = inp
    G = builtin_group(f"builtin:{name}")

    def wcf(level, coeffs):
        return WreathClassFunction(G, level, dict(zip(enumerate_types(G, level), coeffs)))

    big = n + m
    f, g = wcf(big, cf), wcf(big, cg)
    if wreath_pairing(f, g) != colored_pairing(G, ch(G, big, f), ch(G, big, g)):
        return f"ch is not an isometry on {name} level {big}"
    if ch_inverse(G, big, ch(G, big, f)) != f:
        return f"ch_inverse(ch f) != f on {name} level {big}"
    fn, gm = wcf(n, cf), wcf(m, cg)
    if induce(G, n, m, fn, gm) != induce_bruteforce(G, n, m, fn, gm):
        return f"induce != induce_bruteforce on {name} ({n}, {m})"
    return None


@dataclass(frozen=True)
class Workload:
    queries: list[Query]
    make_inputs: Callable[[random.Random], list]
    probe: Callable[[object], str | None]


WORKLOADS = {
    "sl2-tables": Workload(SL2_QUERIES, _sl2_inputs, _sl2_probe),
    "fock-modes": Workload(FOCK_QUERIES, _fock_inputs, _fock_probe),
    "wreath-oracles": Workload(WREATH_QUERIES, _wreath_inputs, _wreath_probe),
}
