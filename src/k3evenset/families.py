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

A family kind is a pair: a side, the split frame ZX + B it lives over
(X = L over <-2>^8, or X = M over E8(-2)), and whether it is glued, i.e.
X is replaced by the glue class (X - sum x_i)/2 (the primed kinds).  Every
kind-dependent fact is derived from the pair in this module: label key,
parity rule, frame, basis, glue indices, the discriminant group of the
classification lemma and the correspondence partner.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from operator import mul
from typing import Callable, NamedTuple, Optional, Union

from .disc import group_from_factors
from .exactlin import IntMatrix, row_hnf
from .lattice import (
    FrameVector,
    IntegerLattice,
    coords_in,
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
    return IntegerLattice.framed("N", split, _nikulin_rows(8, 0), _N_NAMES, s=2)


_N_NAMES = tuple(f"N{i}" for i in range(1, 8)) + ("Nhat",)
_E_NAMES = tuple(f"e{i}" for i in range(1, 9))


def _nikulin_rows(dim: int, offset: int) -> list[list[int]]:
    """2 * (N1, ..., N7, Nhat) in a split frame whose N-columns start at `offset`."""
    rows = [[2 if j == offset + i else 0 for j in range(dim)] for i in range(7)]
    return rows + [[1 if offset <= j < offset + 8 else 0 for j in range(dim)]]


# --- split frames ------------------------------------------------------------


@cache
def split_root_l(d: int) -> IntegerLattice:
    """Reference frame ZL + <-2>^8 with orthogonal basis (L, N1..N8)."""
    if d <= 0:
        raise ValueError("d must be positive")
    names = ("L",) + tuple(f"N{i}" for i in range(1, 9))
    return IntegerLattice(f"Lsplit:2d={2 * d}", IntMatrix.diagonal([2 * d] + [-2] * 8), names)


@cache
def split_root_m(dprime: int) -> IntegerLattice:
    """Reference frame ZM + E8(-2) with basis (M, e1..e8)."""
    g = [[2 * dprime] + [0] * 8] + [[0, *row] for row in _scaled(e8_cartan(), -2).entries]
    return IntegerLattice(f"Msplit:2d'={2 * dprime}", IntMatrix(g), ("M",) + _E_NAMES)


def l_frame_d(ns: IntegerLattice) -> Optional[int]:
    """d (L^2 = 2d) of the L-type split frame ns lives over, or None."""
    root = ns.root()
    if root.rank == 9 and root.name.startswith("Lsplit"):
        return root.gram[0, 0] // 2
    return None


# --- family descriptors ------------------------------------------------------

KIND_L = "L"
KIND_LPRIME = "L'"
KIND_M = "M"
KIND_MPRIME = "M'"
KINDS = (KIND_L, KIND_LPRIME, KIND_M, KIND_MPRIME)

_FAMILY_RE = re.compile(r"^(L'|L|M'|M):(2d'?)=(\d+)$")


class _Side(NamedTuple):
    """What the unglued family of a split frame and its glued kind share."""

    key: str  # the label's parameter: 2d or 2d'
    root: Callable[[int], IntegerLattice]
    generator: tuple[str, str]  # name of the first basis vector: unglued, glued
    body: tuple[tuple[int, ...], ...]  # the other eight basis rows, doubled
    body_names: tuple[str, ...]
    glues: tuple[tuple[int, ...], tuple[int, ...]]  # glue indices, parameter 2 or 0 mod 4
    twos: int  # Z/2 summands of the unglued discriminant group
    parity: str  # why the glued kind needs an even parameter


_SIDES = {
    "L": _Side(
        "2d", split_root_l, ("L", "g"), tuple(map(tuple, _nikulin_rows(9, 1))), _N_NAMES,
        ((1, 2), (1, 2, 3, 4)), 6, "no overlattice exists for L':2d={}: L^2 = 2 mod 4",
    ),
    "M": _Side(
        "2d'", split_root_m, ("M", "gM"),
        tuple(tuple(2 if j == i else 0 for j in range(9)) for i in range(1, 9)), _E_NAMES,
        ((1,), (1, 3)), 8, "M':2d'={} violates its parity constraint: M^2 = 0 mod 4 required",
    ),
}


def family_label(kind: str, parameter: int) -> str:
    """The label of a kind at a parameter, whether or not the family exists."""
    return f"{kind}:{_SIDES[kind[0]].key}={2 * parameter}"


def parity_violation(kind: str, parameter: int) -> Optional[str]:
    """Why no family of this kind exists at this parameter, or None."""
    if kind.endswith("'") and parameter % 2:
        return _SIDES[kind[0]].parity.format(2 * parameter)
    return None


@cache
def discriminant_factors(kind: str, parameter: int) -> tuple[int, ...]:
    """Z/2d + (Z/2)^k by the classification lemma: k = 6 for L, 8 for M, two
    fewer when glued.  Defined also where the parity rule fails."""
    side = _SIDES[kind[0]]
    return group_from_factors((2 * parameter,) + (2,) * (side.twos - 2 * kind.endswith("'")))


class _FamilyFields(NamedTuple):
    kind: str
    parameter: int


class NSFamily(_FamilyFields):
    """One of the four parametric families, keyed by kind and d (or d')."""

    __slots__ = ()

    def __new__(cls, kind: str, parameter: int):
        if kind not in KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        if parameter <= 0:
            raise ValueError("family parameter must be a positive integer")
        reason = parity_violation(kind, parameter)
        if reason:
            raise ValueError(reason)
        return super().__new__(cls, kind, parameter)

    @property
    def side(self) -> str:
        return self.kind[0]

    @property
    def glued(self) -> bool:
        return self.kind.endswith("'")

    def label(self) -> str:
        return family_label(self.kind, self.parameter)

    def __str__(self):
        return self.label()

    def partner(self) -> NSFamily:
        """Partner under the Nikulin quotient / double cover correspondence.

        Other side, other glue state: L_{2d} <-> M'_{4d}, L'_{4d'} <-> M_{2d'};
        the map is an involution.
        """
        other = KIND_M if self.side == KIND_L else KIND_L
        if self.glued:
            return NSFamily(other, self.parameter // 2)
        return NSFamily(other + "'", 2 * self.parameter)


def families_for(parameter: int) -> list[NSFamily]:
    """Every family that exists at this parameter, in KINDS order."""
    return [NSFamily(k, parameter) for k in KINDS if not parity_violation(k, parameter)]


def parse_family(text: str) -> NSFamily:
    return NSFamily(*parse_family_syntax(text))


def parse_family_syntax(text: str) -> tuple[str, int]:
    """(kind, parameter) of a family label, before the parity rule."""
    m = _FAMILY_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"malformed family {text!r}; expected e.g. L:2d=8, L':2d=8, M:2d'=4, M':2d'=8"
        )
    kind, param_key, value = m.groups()
    key = _SIDES[kind[0]].key
    if param_key != key:
        raise ValueError(f"{kind} families use the parameter {key}, not {param_key}")
    subscript = int(value)
    if subscript <= 0 or subscript % 2 != 0:
        raise ValueError(f"family subscript must be a positive even integer, got {subscript}")
    return kind, subscript // 2


def glue_indices(family: NSFamily) -> tuple[int, ...]:
    """Indices i of the glue class (X - sum x_i)/2 that glues the family's
    side at its parameter: x_i = N_i for X = L, e_i for X = M."""
    if family.parameter % 2:
        raise ValueError(f"no glue exists for odd d = {family.parameter}")
    return _SIDES[family.side].glues[family.parameter % 4 == 0]


# --- construction ------------------------------------------------------------


def nikulin_sublattice(ns: IntegerLattice) -> IntegerLattice:
    """Copy of N inside the split root frame of an L-type lattice."""
    if l_frame_d(ns) is None:
        raise ValueError(f"{ns.name} does not live over a split L frame")
    return IntegerLattice.framed("N", ns.root(), _SIDES["L"].body, _N_NAMES, s=2)


def _family_lattice(family: NSFamily) -> IntegerLattice:
    """The family's basis over its split frame: X or the glue class, then B's rows."""
    side = _SIDES[family.side]
    if family.glued:
        idx = glue_indices(family)
        first = [1] + [-1 if i in idx else 0 for i in range(1, 9)]
    else:
        first = [2] + [0] * 8
    names = (side.generator[family.glued],) + side.body_names
    return IntegerLattice.framed(
        family.label(), side.root(family.parameter), [first, *side.body], names, s=2
    )


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
    one object (and hence one root frame) per lattice: every spelling of a
    family (L:2d=04, L:2d=4) maps to the object of its canonical label.
    """
    key = which.label() if isinstance(which, NSFamily) else which
    lat = _MAKE_CACHE.get(key)
    if lat is None:
        if key in _NAMED:
            lat = _NAMED[key]()
        else:
            family = parse_family(key)
            lat = _MAKE_CACHE.get(family.label()) or _family_lattice(family)
            _MAKE_CACHE[family.label()] = lat
        _MAKE_CACHE[key] = lat
    return lat


# --- glue vectors and overlattices ------------------------------------------


class _GlueFields(NamedTuple):
    support: frozenset[int]


class GlueVector(_GlueFields):
    """Normal form of a glue vector: v = sum of N_i over an even support.

    The Nhat component and the overall sign are dropped: modulo 2N every
    admissible class has a representative with coefficients in {0, 1}.
    """

    __slots__ = ()

    def __new__(cls, support: frozenset[int]):
        if not support <= set(range(1, 9)):
            raise ValueError("support must be a subset of {1..8}")
        if len(support) % 2 != 0:
            raise ValueError("support size must be even")
        return super().__new__(cls, support)

    def sorted_support(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

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
    and glue . glue = xi . gx / dx^2.  The glue must share base's root frame,
    whose Gram is the one glue.gram_row() reads.
    """
    xi, dx = glue.root_scaled()
    gx = glue.gram_row()
    rows, s = base.basis_in_root_scaled()
    return [sum(map(mul, row, gx)) for row in rows], dx * s, sum(map(mul, xi, gx)), dx * dx


@cache
def _even_glues() -> tuple[GlueVector, ...]:
    """One GlueVector per even support, ordered by size and then support.

    Every d's glue classes hold these objects, so the per-d memo of
    admissible_glues stores references, not 56 or 70 new glues per d.
    """
    return tuple(
        GlueVector(frozenset(s)) for size in range(0, 9, 2) for s in combinations(range(1, 9), size)
    )


def glue_classes(d: int) -> list[list[GlueVector]]:
    """All admissible glue vectors for L^2 = 2d, grouped into equivalence classes.

    The scan runs over the 128 even supports; callers validate each survivor.
    Grouping uses the two equivalence mechanisms of the uniqueness proof
    (support size and complement); one representative pair per size
    combination is verified against literal overlattice equality through
    glue_equivalent.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    found = [g for g in _even_glues() if glue_admissible(d, g)]
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


@cache
def admissible_glues(d: int) -> tuple[tuple[GlueVector, ...], ...]:
    """glue_classes(d), each glue validated by the direct pairing checks.

    The classification is fixed by d, so it is computed once per d and
    shared as a tuple of tuples; a bad d raises on every call.
    """
    classes = glue_classes(d)
    base = make(NSFamily(KIND_L, d))
    root = base.root()
    for cls in classes:
        for g in cls:
            validate_glue(base, g.glue_class(root))
    return tuple(map(tuple, classes))


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
    if l_frame_d(ns) is None:
        raise ValueError(f"divisor expressions are defined over L-type frames, not {root.name}")
    family = parse_family(ns.name)
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
        # L1 is the glue class, L2 = L - Nhat - L1 the complementary one
        first = glue_indices(family)
        out[0] = 1
        for i in range(1, 9):
            if (i in first) == (sym == "L1"):
                out[i] = -1
        return out
    raise ValueError(f"unknown divisor symbol {sym}")


def canonical_octet(ns: IntegerLattice) -> list[FrameVector]:
    """The classes N1..N8 in ns's root frame."""
    if l_frame_d(ns) is None:
        raise ValueError(f"{ns.name} does not have a canonical octet")
    return [ns.root().basis_vector(i) for i in range(1, 9)]
