"""The named lattices and the four Neron-Severi families.

Basis conventions used throughout (normative for the whole package):

* the Nikulin lattice N has ordered basis (N1, ..., N7, Nhat) with
  Nhat = (N1 + ... + N8)/2;
* L_{2d} = ZL + N has basis (L, N1, ..., N7, Nhat) and lives in the split
  root frame with orthogonal reference basis (L, N1, ..., N8);
* L'_{2d} has basis (g, N1, ..., N7, Nhat) where g is the canonical glue
  class (L - N1 - N2)/2 for d = 2 mod 4 and (L - N1 - N2 - N3 - N4)/2 for
  d = 0 mod 4;
* M_{2d'} = ZM + E8(-2) has basis (M, e1, ..., e8);
* M'_{2d'} has basis (gM, e1, ..., e8) with gM = (M - e1)/2 or
  (M - e1 - e3)/2 depending on the parity of d'/2;
* the K3 lattice U^3 + E8(-1)^2 has basis (e1, f1, e2, f2, e3, f3,
  then the two E8 blocks).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul
from typing import Union

from .exactlin import IntMatrix, row_hnf
from .lattice import (
    FrameVector,
    IntegerLattice,
    coords_in,
    inner,
    is_primitive,
    same_lattice,
)

# E8 Dynkin diagram: chain 1-2-3-4-5-6-7 with node 8 attached to node 5.
# Nodes 1 and 3 are not adjacent, as the discriminant computation for the
# M' glue class (M - e1 - e3)/2 requires.
_E8_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))


def e8_cartan() -> IntMatrix:
    a = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a[i][i] = 2
    for i, j in _E8_EDGES:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return IntMatrix(a)


def _scaled(m: IntMatrix, s: int) -> IntMatrix:
    return IntMatrix([[s * x for x in row] for row in m.entries])


def hyperbolic_plane(scale: int = 1) -> IntegerLattice:
    name = "U" if scale == 1 else f"U({scale})"
    return IntegerLattice(name, IntMatrix([[0, scale], [scale, 0]]), ("e", "f"))


def e8_lattice(scale: int = -1) -> IntegerLattice:
    name = f"E8({scale})"
    names = tuple(f"a{i}" for i in range(1, 9))
    return IntegerLattice(name, _scaled(e8_cartan(), scale), names)


def k3_lattice() -> IntegerLattice:
    """The K3 lattice U^3 + E8(-1)^2, rank 22, signature (3, 19)."""
    n = 22
    g = [[0] * n for _ in range(n)]
    for k in range(3):
        g[2 * k][2 * k + 1] = 1
        g[2 * k + 1][2 * k] = 1
    e8 = _scaled(e8_cartan(), -1).entries
    for blk in range(2):
        o = 6 + 8 * blk
        for i in range(8):
            for j in range(8):
                g[o + i][o + j] = e8[i][j]
    names = ["e1", "f1", "e2", "f2", "e3", "f3"]
    names += [f"a{i}" for i in range(1, 9)]
    names += [f"b{i}" for i in range(1, 9)]
    return IntegerLattice("K3", IntMatrix(g), names)


def nikulin_lattice() -> IntegerLattice:
    """The standalone Nikulin lattice, framed in its own split frame."""
    split = IntegerLattice(
        "Nsplit",
        IntMatrix.diagonal([-2] * 8),
        tuple(f"N{i}" for i in range(1, 9)),
    )
    return _nikulin_in_split(split, offset=0)


_N_NAMES = tuple(f"N{i}" for i in range(1, 8)) + ("Nhat",)


def _nikulin_rows(dim: int, offset: int) -> list[list[int]]:
    """2 * (N1, ..., N7, Nhat) in a split frame whose N-columns start at `offset`."""
    rows = [[2 if j == offset + i else 0 for j in range(dim)] for i in range(7)]
    return rows + [[1 if offset <= j < offset + 8 else 0 for j in range(dim)]]


def _nikulin_in_split(split: IntegerLattice, offset: int) -> IntegerLattice:
    """N framed in a split frame whose N-columns start at `offset`."""
    return IntegerLattice.framed("N", split, _nikulin_rows(split.rank, offset), _N_NAMES, s=2)


# --- family descriptors ------------------------------------------------------

KIND_L = "L"
KIND_LPRIME = "L'"
KIND_M = "M"
KIND_MPRIME = "M'"

_FAMILY_RE = re.compile(r"^(L'|L|M'|M):(2d'?)=(\d+)$")


@dataclass(frozen=True)
class NSFamily:
    """One of the four parametric families, keyed by kind and d (or d')."""

    kind: str
    parameter: int

    def __post_init__(self):
        if self.kind not in (KIND_L, KIND_LPRIME, KIND_M, KIND_MPRIME):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.parameter <= 0:
            raise ValueError("family parameter must be a positive integer")
        if self.kind == KIND_LPRIME and self.parameter % 2 != 0:
            raise ValueError(
                f"no overlattice exists for L':2d={2 * self.parameter}: L^2 = 2 mod 4"
            )
        if self.kind == KIND_MPRIME and self.parameter % 2 != 0:
            raise ValueError(
                f"M':2d'={2 * self.parameter} violates its parity constraint: M^2 = 0 mod 4 required"
            )

    def label(self) -> str:
        if self.kind in (KIND_L, KIND_LPRIME):
            return f"{self.kind}:2d={2 * self.parameter}"
        return f"{self.kind}:2d'={2 * self.parameter}"

    def __str__(self):
        return self.label()


def parse_family(text: str) -> NSFamily:
    return NSFamily(*parse_family_syntax(text))


def parse_family_syntax(text: str) -> tuple[str, int]:
    """(kind, parameter) of a family label, before the parity constraints."""
    m = _FAMILY_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"malformed family {text!r}; expected e.g. L:2d=8, L':2d=8, M:2d'=4, M':2d'=8"
        )
    kind, param_key, value = m.group(1), m.group(2), m.group(3)
    if kind in (KIND_L, KIND_LPRIME) and param_key != "2d":
        raise ValueError(f"{kind} families use the parameter 2d, not {param_key}")
    if kind in (KIND_M, KIND_MPRIME) and param_key != "2d'":
        raise ValueError(f"{kind} families use the parameter 2d', not {param_key}")
    subscript = int(value)
    if subscript <= 0 or subscript % 2 != 0:
        raise ValueError(f"family subscript must be a positive even integer, got {subscript}")
    return kind, subscript // 2


# --- construction ------------------------------------------------------------


_ROOT_CACHE: dict[str, IntegerLattice] = {}


def split_root_l(d: int) -> IntegerLattice:
    """Reference frame ZL + <-2>^8 with orthogonal basis (L, N1..N8)."""
    if d <= 0:
        raise ValueError("d must be positive")
    name = f"Lsplit:2d={2 * d}"
    if name not in _ROOT_CACHE:
        names = ("L",) + tuple(f"N{i}" for i in range(1, 9))
        _ROOT_CACHE[name] = IntegerLattice(
            name, IntMatrix.diagonal([2 * d] + [-2] * 8), names
        )
    return _ROOT_CACHE[name]


def split_root_m(dprime: int) -> IntegerLattice:
    name = f"Msplit:2d'={2 * dprime}"
    if name not in _ROOT_CACHE:
        names = ("M",) + tuple(f"e{i}" for i in range(1, 9))
        g = [[0] * 9 for _ in range(9)]
        g[0][0] = 2 * dprime
        e8m2 = _scaled(e8_cartan(), -2).entries
        for i in range(8):
            for j in range(8):
                g[1 + i][1 + j] = e8m2[i][j]
        _ROOT_CACHE[name] = IntegerLattice(name, IntMatrix(g), names)
    return _ROOT_CACHE[name]


def nikulin_sublattice(ns: IntegerLattice) -> IntegerLattice:
    """Copy of N inside the split root frame of an L-type lattice."""
    root = ns.root()
    if not root.name.startswith("Lsplit"):
        raise ValueError(f"{ns.name} does not live over a split L frame")
    return _nikulin_in_split(root, offset=1)


def canonical_glue_support(d: int) -> tuple[int, ...]:
    if d % 2 != 0:
        raise ValueError(f"no glue exists for odd d = {d}")
    return (1, 2) if d % 4 == 2 else (1, 2, 3, 4)


def _l_family(d: int) -> IntegerLattice:
    root = split_root_l(d)
    rows = [[2] + [0] * 8] + _nikulin_rows(9, 1)
    return IntegerLattice.framed(f"L:2d={2 * d}", root, rows, ("L",) + _N_NAMES, s=2)


def _lprime_family(d: int) -> IntegerLattice:
    support = canonical_glue_support(d)
    root = split_root_l(d)
    glue_row = [1] + [-1 if (i + 1) in support else 0 for i in range(8)]
    rows = [glue_row] + _nikulin_rows(9, 1)
    return IntegerLattice.framed(f"L':2d={2 * d}", root, rows, ("g",) + _N_NAMES, s=2)


def _m_family(dprime: int) -> IntegerLattice:
    root = split_root_m(dprime)
    rows = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    names = ("M",) + tuple(f"e{i}" for i in range(1, 9))
    return IntegerLattice.framed(f"M:2d'={2 * dprime}", root, rows, names)


def mprime_glue_indices(dprime: int) -> tuple[int, ...]:
    """E8(-2) basis indices entering the M' glue class (M - sum e_i)/2."""
    n = dprime // 2
    return (1,) if n % 2 == 1 else (1, 3)


def _mprime_family(dprime: int) -> IntegerLattice:
    root = split_root_m(dprime)
    idx = mprime_glue_indices(dprime)
    glue_row = [1] + [-1 if (i + 1) in idx else 0 for i in range(8)]
    rows = [glue_row]
    for i in range(8):
        rows.append([0] + [2 if j == i else 0 for j in range(8)])
    names = ("gM",) + tuple(f"e{i}" for i in range(1, 9))
    return IntegerLattice.framed(f"M':2d'={2 * dprime}", root, rows, names, s=2)


_NAMED = {
    "U": lambda: hyperbolic_plane(),
    "U(2)": lambda: hyperbolic_plane(2),
    "E8(-1)": lambda: e8_lattice(-1),
    "E8(-2)": lambda: e8_lattice(-2),
    "N": nikulin_lattice,
    "K3": k3_lattice,
}

_MAKE_CACHE: dict[str, IntegerLattice] = {}


def make(which: Union[str, NSFamily]) -> IntegerLattice:
    """Build any named lattice or family member in its normative basis.

    Lattices are immutable, so results are memoized; repeated calls share
    one object (and hence one root frame) per label.
    """
    if isinstance(which, NSFamily):
        key = which.label()
    else:
        key = which
    cached = _MAKE_CACHE.get(key)
    if cached is not None:
        return cached
    if isinstance(which, str):
        if which in _NAMED:
            lat = _NAMED[which]()
            _MAKE_CACHE[key] = lat
            return lat
        which = parse_family(which)
    if which.kind == KIND_L:
        lat = _l_family(which.parameter)
    elif which.kind == KIND_LPRIME:
        lat = _lprime_family(which.parameter)
    elif which.kind == KIND_M:
        lat = _m_family(which.parameter)
    else:
        lat = _mprime_family(which.parameter)
    _MAKE_CACHE[key] = lat
    return lat


def family_of(ns: IntegerLattice) -> NSFamily:
    return parse_family(ns.name)


# --- glue vectors and overlattices ------------------------------------------


@dataclass(frozen=True)
class GlueVector:
    """Normal form of a glue vector: v = sum of N_i over an even support.

    The Nhat component and the overall sign are dropped: modulo 2N every
    admissible class has a representative with coefficients in {0, 1}.
    """

    support: frozenset[int]

    def __post_init__(self):
        if not self.support <= set(range(1, 9)):
            raise ValueError("support must be a subset of {1..8}")
        if len(self.support) % 2 != 0:
            raise ValueError("support size must be even")

    @property
    def norm(self) -> int:
        return -2 * len(self.support)

    def sorted_support(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def vector(self, root: IntegerLattice) -> FrameVector:
        return root.vector([0] + [1 if i in self.support else 0 for i in range(1, 9)])

    def glue_class(self, root: IntegerLattice) -> FrameVector:
        """The adjoined class (L + v)/2 in the split root frame."""
        return FrameVector(root, [1] + [1 if i in self.support else 0 for i in range(1, 9)], 2)


def glue_admissible(d: int, glue: GlueVector) -> bool:
    """The three conditions on v: even pairing, v/2 outside N, parity mod 8."""
    size = len(glue.support)
    if size in (0, 8):
        return False  # v/2 would already lie in N (v = 0 or v = 2*Nhat)
    return (2 * d) % 8 == (2 * size) % 8


def validate_glue(base: IntegerLattice, glue: FrameVector) -> tuple[int, ...]:
    """Admissibility of a glue class by direct pairing checks (no construction).

    Raises with the specific failure: glue already inside, 2*glue outside,
    a non-integral pairing, or an odd adjoined square.  Returns the integer
    coordinates of 2*glue in base's basis.
    """
    doubled = coords_in(base, glue, 2)
    if doubled is None:
        if base._solve_scaled(glue.root_scaled()[0]) is None:
            raise ValueError("glue vector is outside the rational span of the lattice")
        raise ValueError("2 * glue must lie in the lattice")
    if not any(c % 2 for c in doubled):
        raise ValueError("glue already in lattice")
    pairings, den, sq, sq_den = glue_pairings(base, glue)
    for name, p in zip(base.basis_names, pairings):
        if p % den:
            raise ValueError(
                f"integrality failure: glue pairs non-integrally ({Fraction(p, den)}) with {name}"
            )
    if sq % (2 * sq_den):
        raise ValueError(f"evenness failure: adjoined square {Fraction(sq, sq_den)} is not in 2Z")
    return doubled


def glue_pairings(base: IntegerLattice, glue: FrameVector) -> tuple[list[int], int, int, int]:
    """(p, den, sq, sq_den) with glue . b_i = p[i] / den and glue . glue = sq / sq_den.

    One integer product gx = G xi over the root Gram, for glue = xi / dx,
    serves every pairing: b_i = B[i] / s gives glue . b_i = B[i] . gx / (dx s)
    and glue . glue = xi . gx / dx^2.  The glue must share base's root frame.
    """
    xi, dx = glue.root_scaled()
    gx = [sum(map(mul, row, xi)) for row in base.root().gram.entries]
    rows, s = base.basis_in_root_scaled()
    return [sum(map(mul, row, gx)) for row in rows], dx * s, sum(map(mul, xi, gx)), dx * dx


def admissible_glues(d: int) -> list[list[GlueVector]]:
    """All admissible glue vectors for L^2 = 2d, grouped into equivalence classes.

    The scan runs over all 2^8 supports; each survivor is validated by the
    direct pairing checks.  Grouping uses the two equivalence mechanisms of
    the uniqueness proof (support size and complement); one representative
    pair per size combination is verified against literal overlattice
    equality through glue_equivalent.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    supports = [
        frozenset(s)
        for size in range(0, 9, 2)
        for s in combinations(range(1, 9), size)
    ]
    found = [GlueVector(s) for s in supports if glue_admissible(d, GlueVector(s))]
    found.sort(key=lambda g: (len(g.support), g.sorted_support()))
    base = make(NSFamily(KIND_L, d))
    root = base.root()
    for g in found:
        validate_glue(base, g.glue_class(root))
    classes: list[list[GlueVector]] = []
    verified_pairs: set[tuple[int, int]] = set()
    for g in found:
        for cls in classes:
            rep = cls[0]
            sizes = (len(rep.support), len(g.support))
            if sizes[0] == sizes[1] or sizes[0] + sizes[1] == 8:
                if sizes not in verified_pairs:
                    if not glue_equivalent(d, rep, g):
                        raise RuntimeError("combinatorial grouping contradicts glue_equivalent")
                    verified_pairs.add(sizes)
                cls.append(g)
                break
        else:
            classes.append([g])
    return classes


def overlattice(base: IntegerLattice, glue: FrameVector) -> IntegerLattice:
    """Index-two extension of base by a glue class.

    Requires glue outside base, 2*glue inside base, integral pairings with
    all of base and even square.  The result is framed in base.
    """
    doubled = validate_glue(base, glue)
    # basis of base + Z*glue via Hermite reduction of doubled coordinates
    int_rows = [[2 if i == j else 0 for j in range(base.rank)] for i in range(base.rank)]
    int_rows.append(doubled)
    basis_rows = row_hnf(int_rows)
    if len(basis_rows) != base.rank:
        raise ValueError("overlattice construction lost rank")
    # a square Hermite form has its pivots on the diagonal
    if prod(row[i] for i, row in enumerate(basis_rows)) != 2 ** (base.rank - 1):
        raise RuntimeError("overlattice does not have index two over its base")
    name = f"{base.name}+glue"
    return IntegerLattice.framed(
        name, base, basis_rows, [f"o{i+1}" for i in range(base.rank)], even=base.even, s=2
    )


def glue_equivalent(d: int, v: GlueVector, vprime: GlueVector) -> bool:
    """Equivalence of glue vectors under the isometries the uniqueness proof uses.

    Two admissible glues are equivalent iff their supports have the same size
    (a permutation in Sigma_8 carries one to the other) or complementary
    supports (the identity v'/2 = Nhat - v/2).  Both mechanisms are verified
    against literal overlattice equality: the complement gives the very same
    point set, the permutation maps one overlattice onto the other.
    """
    for g in (v, vprime):
        if not glue_admissible(d, g):
            raise ValueError(f"glue {g.sorted_support()} is not admissible for d={d}")
    s, sp = v.support, vprime.support
    equivalent = len(s) == len(sp) or len(s) + len(sp) == 8
    if not equivalent:
        return False
    base = make(NSFamily(KIND_L, d))
    root = base.root()
    o_v = overlattice(base, v.glue_class(root))
    o_vp = overlattice(base, vprime.glue_class(root))
    target = sp
    if len(s) != len(sp):
        comp = frozenset(range(1, 9)) - sp
        o_comp = overlattice(base, GlueVector(comp).glue_class(root))
        if not same_lattice(o_vp, o_comp):
            raise RuntimeError("complement identity failed to reproduce the overlattice")
        target = comp
    sigma = _support_permutation(s, target)
    if not same_lattice(_permute_n_columns(o_v, sigma), o_vp):
        raise RuntimeError("permutation witness failed to map the overlattices onto each other")
    return True


def _support_permutation(src: frozenset[int], dst: frozenset[int]) -> dict[int, int]:
    perm = {}
    for a, b in zip(sorted(src), sorted(dst)):
        perm[a] = b
    rest_src = sorted(set(range(1, 9)) - src)
    rest_dst = sorted(set(range(1, 9)) - dst)
    for a, b in zip(rest_src, rest_dst):
        perm[a] = b
    return perm


def _permute_n_columns(lat: IntegerLattice, sigma: dict[int, int]) -> IntegerLattice:
    """Image of an L-split-framed lattice under a permutation of the N_i."""
    scaled, s = lat.basis_in_root_scaled()
    source = {b: a for a, b in sigma.items()}
    rows = [[rc[source.get(j, j)] for j in range(len(rc))] for rc in scaled]
    return IntegerLattice.framed(
        f"{lat.name}^sigma", lat.root(), rows, lat.basis_names, even=lat.even, s=s
    )


# --- explicit embeddings into the K3 lattice ---------------------------------


@dataclass(frozen=True)
class K3EmbeddingRecord:
    family: NSFamily
    u: FrameVector
    alpha: FrameVector
    m_vector: FrameVector
    v_vector: FrameVector
    glue: FrameVector
    ns_copy: IntegerLattice
    m_squared: int
    primitive: bool


def anti_diagonal_e8(k3: IntegerLattice) -> IntegerLattice:
    """The copy {(0, x, -x)} of E8(-2) inside U^3 + E8(-1)^2."""
    rows = []
    for i in range(8):
        row = [0] * 22
        row[6 + i] = 1
        row[14 + i] = -1
        rows.append(row)
    return IntegerLattice.framed(
        "E8(-2)^anti", k3, rows, tuple(f"w{i}" for i in range(1, 9))
    )


def k3_embedding(family: NSFamily) -> K3EmbeddingRecord:
    """Explicit primitive embedding of an M' family into the K3 lattice.

    Realizes M = (2u, alpha, alpha) with u = e1 + ((n+1)/2) f1 for odd n and
    u = e1 + (n/2 + 1) f1 for even n, alpha of square -2 (n odd) or -4
    (n even), v = (0, alpha, -alpha) and the glue (M + v)/2 = (u, alpha, 0).
    Only the M' families are constructed this way; the other kinds raise.
    """
    if family.kind != KIND_MPRIME:
        raise ValueError(
            f"{family}: the explicit K3 embedding is constructed for M' families only"
        )
    n = family.parameter // 2
    k3 = k3_lattice()
    if n % 2 == 1:
        k = (n + 1) // 2
        alpha_coeffs = [1] + [0] * 7  # basis root a1, square -2
    else:
        k = n // 2 + 1
        alpha_coeffs = [1, 0, 1] + [0] * 5  # a1 + a3 (non-adjacent), square -4
    u = k3.vector([1, k] + [0] * 20)
    alpha = k3.vector([0] * 6 + alpha_coeffs + [0] * 8)
    m_vec = k3.vector([2, 2 * k] + [0] * 4 + alpha_coeffs + alpha_coeffs)
    v_vec = k3.vector([0] * 6 + alpha_coeffs + [-a for a in alpha_coeffs])
    glue = (m_vec + v_vec) / 2
    m_sq = inner(m_vec, m_vec)
    assert m_sq == 4 * n, f"M^2 = {m_sq}, expected {4 * n}"
    glue_row, sg = glue.root_scaled()
    anti_rows, sa = anti_diagonal_e8(k3).basis_in_root_scaled()
    rows = [[sa * x for x in glue_row]] + [[sg * x for x in r] for r in anti_rows]
    ns_copy = IntegerLattice.framed(
        f"{family.label()}^K3",
        k3,
        rows,
        ("gM",) + tuple(f"w{i}" for i in range(1, 9)),
        s=sg * sa,
    )
    prim = is_primitive(k3, ns_copy)
    return K3EmbeddingRecord(
        family=family,
        u=u,
        alpha=alpha,
        m_vector=m_vec,
        v_vector=v_vec,
        glue=glue,
        ns_copy=ns_copy,
        m_squared=int(m_sq),
        primitive=prim,
    )


# --- divisor expressions ------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([+-]?)\s*(\d*)\s*\*?\s*(L1|L2|Nhat|L|N[1-8]|M|e[1-8])")


def parse_divisor(ns: IntegerLattice, text: str) -> FrameVector:
    """Parse the divisor mini-language into a vector in ns's root frame.

    Tokens: L, Nhat, N1..N8, L1, L2 with optional integer coefficients and
    '+'/'-' signs; a trailing '/2' halves the whole expression.  L1 and L2
    are only defined on the L' families.  The result is not required to lie
    in ns; membership is the caller's concern.
    """
    raw = text.strip().replace(" ", "")
    halve = False
    if raw.endswith("/2"):
        halve = True
        raw = raw[:-2]
    if raw.startswith("(") and raw.endswith(")"):
        raw = raw[1:-1]
    root = ns.root()
    if not root.name.startswith("Lsplit"):
        raise ValueError(f"divisor expressions are defined over L-type frames, not {root.name}")
    family = family_of(ns)
    coeffs = [0] * 9  # twice the split-frame coefficients
    pos = 0
    first = True
    while pos < len(raw):
        m = _TOKEN_RE.match(raw, pos)
        if not m:
            raise ValueError(f"cannot parse divisor {text!r} at position {pos}")
        sign_s, coeff_s, sym = m.group(1), m.group(2), m.group(3)
        if not first and sign_s == "":
            raise ValueError(f"missing sign before {sym} in divisor {text!r}")
        sign = -1 if sign_s == "-" else 1
        coeff = int(coeff_s) if coeff_s else 1
        vec = _symbol_coeffs(family, sym)
        for i in range(9):
            coeffs[i] += sign * coeff * vec[i]
        pos = m.end()
        first = False
    if first:
        raise ValueError(f"empty divisor expression {text!r}")
    return FrameVector(root, coeffs, 4 if halve else 2)


def _symbol_coeffs(family: NSFamily, sym: str) -> list[int]:
    """Twice the split-frame coefficients (L, N1..N8) of a divisor symbol."""
    out = [0] * 9
    if sym == "L":
        out[0] = 2
        return out
    if sym == "Nhat":
        for i in range(1, 9):
            out[i] = 1
        return out
    if sym.startswith("N"):
        out[int(sym[1])] = 2
        return out
    if sym in ("L1", "L2"):
        if family.kind != KIND_LPRIME:
            raise ValueError(f"{sym} is only defined on L' families, not {family}")
        half = family.parameter // 2
        if half % 2 == 1:
            first, second = (1, 2), (3, 4, 5, 6, 7, 8)
        else:
            first, second = (1, 2, 3, 4), (5, 6, 7, 8)
        support = first if sym == "L1" else second
        out[0] = 1
        for i in support:
            out[i] = -1
        return out
    raise ValueError(f"unknown divisor symbol {sym}")


def canonical_octet(ns: IntegerLattice) -> list[FrameVector]:
    """The classes N1..N8 in ns's root frame."""
    root = ns.root()
    if not root.name.startswith("Lsplit"):
        raise ValueError(f"{ns.name} does not have a canonical octet")
    return [root.basis_vector(i) for i in range(1, 9)]
