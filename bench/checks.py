"""Independent checks of k3evenset's outputs.

Nothing here imports k3evenset: determinants, invariant factors, the family
Gram matrices, Chow-ring expansions and witness arithmetic are recomputed
from the definitions in the paper, so a bug in the program cannot hide in
the code that checks it.  Every check raises CheckError with a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# --- exact linear algebra ----------------------------------------------------


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * out


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors (ascending, each dividing the next) of a sum of Z/n."""
    exps: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _prime_powers(n).items():
            exps.setdefault(p, []).append(e)
    length = max((len(v) for v in exps.values()), default=0)
    factors = []
    for k in range(length):
        f = 1
        for p, es in exps.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                f *= p ** es[k]
        factors.append(f)
    return tuple(sorted(factors))


# --- the four families, built from their definitions ---------------------------

HALF = Fraction(1, 2)
# E8 Dynkin diagram: a chain of seven nodes with the eighth attached to the fifth.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def split_gram(kind: str, param: int) -> list[list[int]]:
    """Gram of the split frame: <2d> + <-2>^8 for L, L'; <2d'> + E8(-2) for M, M'."""
    g = [[0] * 9 for _ in range(9)]
    g[0][0] = 2 * param
    if kind in ("L", "L'"):
        for i in range(1, 9):
            g[i][i] = -2
    else:
        for i in range(1, 9):
            g[i][i] = -4
        for i, j in _E8_EDGES:
            g[1 + i][1 + j] = g[1 + j][1 + i] = 2
    return g


def glue_support(d: int) -> tuple[int, ...]:
    """N-indices of the canonical L' glue (L - sum N_i)/2."""
    return (1, 2) if d % 4 == 2 else (1, 2, 3, 4)


def family_basis(kind: str, param: int) -> list[list[Fraction]]:
    """Basis rows of a family lattice in split-frame coordinates."""
    unit = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
    if kind == "L":
        return unit[:8] + [[Fraction(0)] + [HALF] * 8]
    if kind == "L'":
        sup = glue_support(param)
        glue = [HALF] + [-HALF if i in sup else Fraction(0) for i in range(1, 9)]
        return [glue] + unit[1:8] + [[Fraction(0)] + [HALF] * 8]
    if kind == "M":
        return unit
    # M': (M - e1)/2 or (M - e1 - e3)/2; e1 and e3 are orthogonal roots of E8
    idx = (1,) if (param // 2) % 2 == 1 else (1, 3)
    glue = [HALF] + [-HALF if i in idx else Fraction(0) for i in range(1, 9)]
    return [glue] + unit[1:]


def family_gram(kind: str, param: int) -> list[list[Fraction]]:
    g = split_gram(kind, param)
    b = family_basis(kind, param)
    return [[pair(g, x, y) for y in b] for x in b]


def pair(g, x, y) -> Fraction:
    return sum(
        (x[i] * g[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if x[i] and y[j]),
        Fraction(0),
    )


def expected_disc_orders(kind: str, param: int) -> tuple[int, ...]:
    """The lemma: (2d)+(2)^6, (2d)+(2)^4, (2d')+(2)^8, (2d')+(2)^6."""
    twos = {"L": 6, "L'": 4, "M": 8, "M'": 6}[kind]
    return (2 * param,) + (2,) * twos


def in_l_family(kind: str, d: int, v) -> bool:
    """Membership of a split-frame vector (L, N1..N8) in L_{2d} or L'_{2d}."""
    def in_l(x) -> bool:
        return (
            x[0].denominator == 1
            and all((2 * b).denominator == 1 for b in x[1:])
            and all((b - x[1]).denominator == 1 for b in x[1:])
        )

    if in_l(v):
        return True
    if kind != "L'":
        return False
    glue = family_basis("L'", d)[0]
    return in_l([a - b for a, b in zip(v, glue)])


def correspondence(kind: str, param: int) -> tuple[str, int]:
    """Nikulin correspondence: L_{2d} <-> M'_{4d} and L'_{4d'} <-> M_{2d'}."""
    return {
        "L": ("M'", 2 * param),
        "M'": ("L", param // 2),
        "L'": ("M", param // 2),
        "M": ("L'", 2 * param),
    }[kind]


def family_label(kind: str, param: int) -> str:
    key = "2d" if kind in ("L", "L'") else "2d'"
    return f"{kind}:{key}={2 * param}"


def parse_label(text: str) -> tuple[str, int]:
    kind, rest = text.split(":")
    return kind, int(rest.split("=")[1]) // 2


def glue_count(d: int) -> int:
    if d % 2:
        return 0
    return comb(8, 2) + comb(8, 6) if d % 4 == 2 else comb(8, 4)


# --- Chow ring -------------------------------------------------------------------


def chow_matrix(dims, degrees) -> list[list[int]]:
    """Coefficient of prod h_j^{n_j} in h_a h_b prod_f (sum_j deg_fj h_j)."""
    k = len(dims)
    poly = {(0,) * k: 1}
    for deg in degrees:
        nxt: dict = {}
        for e, c in poly.items():
            for j, dj in enumerate(deg):
                if dj and e[j] < dims[j]:  # higher powers never reach the top degree
                    e2 = e[:j] + (e[j] + 1,) + e[j + 1:]
                    nxt[e2] = nxt.get(e2, 0) + c * dj
        poly = nxt
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            want = list(dims)
            want[a] -= 1
            want[b] -= 1
            out[a][b] = poly.get(tuple(want), 0) if min(want) >= 0 else 0
    return out


# --- reading the program's JSON --------------------------------------------------


def split_vector(obj, d: int) -> list[Fraction]:
    """A JSON vector that must live in the split L frame of parameter d."""
    require(obj is not None, "missing vector")
    require(obj["lattice"] == f"Lsplit:2d={2 * d}", f"vector in frame {obj['lattice']}")
    den = int(obj["den"])
    num = [int(x) for x in obj["num"]]
    require(len(num) == 9, "vector does not have nine coordinates")
    return [Fraction(x, den) for x in num]


def split_pair(d: int, x, y) -> Fraction:
    return 2 * d * x[0] * y[0] - 2 * sum(a * b for a, b in zip(x[1:], y[1:]))


# --- one check per subcommand ------------------------------------------------------


def check_disc(q: dict, out: dict) -> None:
    kind, param = q["kind"], q["param"]
    got = tuple(int(x) for x in out["invariant_factors"])
    want = invariant_factors(expected_disc_orders(kind, param))
    require(got == want, f"invariant factors {got} != {want}")
    order = int(out["order"])
    require(order == abs(det(family_gram(kind, param))), f"order {order} != |det Gram|")


def check_glues(q: dict, out: dict) -> None:
    d = q["d"]
    want = glue_count(d)
    supports = [tuple(s) for cls in out["classes"] for s in cls]
    require(out["count"] == want == len(supports), f"d={d}: {out['count']} glues, expected {want}")
    require(len(out["classes"]) == (1 if want else 0), f"d={d}: {len(out['classes'])} classes")
    require(len(set(supports)) == len(supports), "repeated glue support")
    for s in supports:
        require(len(s) in (2, 4, 6) and len(s) % 4 == d % 4, f"inadmissible support {s}")


def check_overlattice(q: dict, out: dict) -> None:
    gram = [[int(x) for x in row] for row in out["lattice"]["gram"]]
    require(len(gram) == 9 and all(gram[i][i] % 2 == 0 for i in range(9)), "not an even rank-9 Gram")
    over = abs(det(gram))
    base = abs(det(family_gram("L", q["d"])))
    require(4 * over == base, f"|det| {over} is not |det base| / 4 = {base} / 4")
    disc = out["discriminant"]
    prod = 1
    for f in disc["invariant_factors"]:
        prod *= int(f)
    require(int(disc["order"]) == prod == over, "discriminant order is not |det|")


def check_ample(q: dict, out: dict) -> None:
    d, coeffs = q["d"], [Fraction(x) for x in q["coeffs"]]
    rep = out["report"]
    divisor = split_vector(rep["divisor"], d)
    require(divisor == coeffs, f"divisor read back as {divisor}")
    d2 = split_pair(d, coeffs, coeffs)
    require(int(rep["d2"]) == d2, f"D^2 = {rep['d2']}, expected {d2}")
    status, wit = rep["status"], rep["witness"]
    require(status in ("ample", "pseudo_ample", "nef", "not_nef"), f"unknown status {status}")
    if status in ("ample", "pseudo_ample"):
        require(d2 > 0, f"{status} divisor with D^2 = {d2}")
    if status == "nef":
        require(d2 == 0, f"nef but not big with D^2 = {d2}")
    if status == "ample":
        require(wit is None, "ample divisor with a witness")
    elif wit is not None or status != "nef":
        w = split_vector(wit, d)
        require(split_pair(d, w, w) == -2, f"witness square {split_pair(d, w, w)} != -2")
        require(in_l_family(q["family"], d, w), "witness outside the lattice")
        dw = split_pair(d, coeffs, w)
        require(dw <= 0, f"witness has D.w = {dw} > 0")
        require((dw < 0) == (status == "not_nef"), f"D.w = {dw} contradicts {status}")
    if q.get("expect"):
        require(status == q["expect"], f"status {status}, the paper gives {q['expect']}")


def check_hyperelliptic(q: dict, out: dict) -> None:
    d, coeffs = q["d"], [Fraction(x) for x in q["coeffs"]]
    d2 = split_pair(d, coeffs, coeffs)
    kind, wkind, wit = out["kind"], out["witness_kind"], out["witness"]
    require(kind in ("double_cover", "birational"), f"unknown verdict {kind}")
    if d2 == 2:
        require(kind == "double_cover", "D^2 = 2 must give a double plane")
    if kind == "birational":
        require(wit is None and wkind is None, "birational verdict with a witness")
        return
    if wkind == "genus2":
        require(wit is None and d2 == 2, "genus-2 witness needs D^2 = 2")
        return
    w = split_vector(wit, d)
    require(in_l_family(q["family"], d, w), "witness outside the lattice")
    if wkind == "elliptic_pencil":
        require(split_pair(d, w, w) == 0, "elliptic pencil with E^2 != 0")
        require(split_pair(d, w, coeffs) == 2, "elliptic pencil with E.D != 2")
    elif wkind == "half_polarization":
        require(split_pair(d, w, w) == 2, "half polarization with B^2 != 2")
        require([2 * x for x in w] == coeffs, "half polarization with D != 2B")
    else:
        raise CheckError(f"unknown witness kind {wkind}")


def check_evenset(q: dict, out: dict) -> None:
    require(out["even"] is True, "canonical octet reported not even")


def check_chow(q: dict, out: dict) -> None:
    want = chow_matrix(q["dims"], q["degrees"])
    require(out["matrix"] == want, f"matrix {out['matrix']} != {want}")
    require(out["k3"] is True, "K3 complete intersection reported not K3")


# Polarizations per row of the model table, as printed in the paper.
TABLE1_MODELS = {
    "L:2d=2": 1, "L:2d=4": 1, "L':2d=4": 2, "L:2d=6": 3, "L:2d=8": 2, "L':2d=8": 2,
    "L:2d=10": 2, "L:2d=12": 2, "L':2d=12": 2, "L':2d=16": 1, "L':2d=24": 1,
}


def check_table1(q: dict, out: dict) -> None:
    family, rows = q["family"], out["rows"]
    require(out["ok"] is True and all(r["ok"] for r in rows), "a table row does not verify")
    require(len(rows) == TABLE1_MODELS[family] + 1, f"{len(rows)} table rows")
    for r in rows:
        require(r["family"] == family, f"unexpected row {r['family']}")
        if r["polarization"] == "(partner)":
            partner = family_label(*correspondence(*parse_label(r["family"])))
            require(r["computed"]["partner"] == partner, f"partner {r['computed']['partner']}")


def check_correspond(q: dict, out: dict) -> None:
    want = family_label(*correspondence(q["kind"], q["param"]))
    require(out["partner"] == want, f"partner {out['partner']}, expected {want}")


CHECKS = {
    "disc": check_disc,
    "glues": check_glues,
    "overlattice": check_overlattice,
    "ample": check_ample,
    "hyperelliptic": check_hyperelliptic,
    "evenset": check_evenset,
    "chow": check_chow,
    "table1": check_table1,
    "correspond": check_correspond,
}


def check_output(q: dict, rc: int, stdout: str, stderr: str) -> None:
    """Check one CLI call: its exit status, then its JSON against q."""
    require("Traceback" not in stderr, "traceback on stderr")
    if q["cmd"] == "malformed":
        require(rc == 2, f"malformed input exited {rc}, not 2")
        require("error" in stderr, "malformed input gave no error message")
        return
    require(rc == 0, f"exit status {rc}: {stderr.strip()[:200]}")
    out = json.loads(stdout)
    require(out.get("schema") == "k3evenset/1", "missing schema tag")
    CHECKS[q["cmd"]](q, out)


def check_criteria(results: list) -> None:
    """verify-paper: all eight criteria ran and none reported a failure."""
    require([r["number"] for r in results] == list(range(1, 9)), "criteria missing")
    for r in results:
        require(not r["failures"], f"criterion {r['number']}: {r['failures'][:3]}")
