"""Seeded CLI queries for the query-stream and cli-cold workloads.

A query is a dict: `argv` (the arguments after `--format json`), `cmd` (the
subcommand, or "malformed" for input that must exit 2) and the data its
check in checks.py needs.  The same seed always gives the same list.

The mix (queries per round of 100) covers every query subcommand: disc 16,
glues 8, overlattice 8, ample 25, hyperelliptic 10, evenset 4, chow 12,
table1 5, correspond 12.  Family parameters are uniform up to 2d = 120.
Choices are dealt from shuffled decks rather than drawn independently, and
each deck's size divides the number of cards a round deals from it, so
every seed gives a round of the same composition and nearly the same cost;
the seed decides the order and which parameters go together.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import HALF, TABLE1_MODELS, family_label, glue_support

DMAX = 60
MIX = (
    ("disc", 16), ("glues", 8), ("overlattice", 8), ("ample", 25), ("hyperelliptic", 10),
    ("evenset", 4), ("chow", 12), ("table1", 5), ("correspond", 12),
)

# Big mixed-weight divisors with D^2 > 0 that lie in their lattice.  The
# root-search bound of positivity uses w^2*|S| where sum q_i^2 is needed, so
# these are refused ("search bound degenerates") although they are valid
# input.  They are the same in every round and for every seed, and count as
# failed operations until the bound is mended.
BOUND_FAULT = (
    (6, (2, -3, -1, -1, -1, -1, -1, -1, -1)),
    (10, (2, -4, -1, -1, -1, -1, -1, -1, -1)),
    (20, (2, -5, -2, -1, -1, -1, -1, -1, -1)),
    (3, (3, -3, -1, -1, -1, -1, 0, 0, 0)),
)


def render(coeffs) -> str:
    """Divisor text for split-frame coefficients (L, N1..N8)."""
    halve = any(Fraction(c).denominator != 1 for c in coeffs)
    ints = [int(2 * c) if halve else int(c) for c in coeffs]
    terms = []
    for i, c in enumerate(ints):
        if c == 0:
            continue
        sym = "L" if i == 0 else f"N{i}"
        mag = "" if abs(c) == 1 else str(abs(c))
        terms.append(("-" if c < 0 else ("+" if terms else "")) + mag + sym)
    text = "".join(terms)
    return f"({text})/2" if halve else text


class Deck:
    """Seeded stratified choice: deals every option once per shuffled pass."""

    def __init__(self, rng: random.Random, options):
        self.rng, self.options, self.hand = rng, list(options), []

    def deal(self):
        if not self.hand:
            self.hand = self.options[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def divisor_query(cmd: str, kind: str, d: int, coeffs, text=None, expect=None) -> dict:
    coeffs = [Fraction(c) for c in coeffs]
    q = {
        "cmd": cmd,
        "argv": [cmd, family_label(kind, d), "--divisor", text or render(coeffs)],
        "family": kind,
        "d": d,
        "coeffs": [str(c) for c in coeffs],
    }
    if expect:
        q["expect"] = expect
    return q


class Generator:
    """Seeded query source; see the module docstring for the mix."""

    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.cmd = Deck(rng, [c for c, w in MIX for _ in range(w)])
        self.kind = Deck(rng, ("L", "L'", "M", "M'"))
        self.l_kind = Deck(rng, ("L", "L'"))
        self.d = Deck(rng, range(1, DMAX + 1))
        self.d_even = Deck(rng, range(2, DMAX + 1, 2))
        self.d_ample = Deck(rng, range(3, DMAX + 1))
        self.d_lprime = Deck(rng, range(6, DMAX + 1, 2))
        self.glue_residue = Deck(rng, (1, 2, 3, 4))  # d mod 4 decides 0, 56 or 70 glues
        self.glue_quotient = Deck(rng, range(DMAX // 4))
        self.support_given = Deck(rng, (False, True))
        self.lprime_name = Deck(rng, ("L", "L1", "L2", "L-Nhat", "2L-Nhat"))
        self.table = Deck(rng, list(TABLE1_MODELS))
        self.ab = Deck(rng, [(a, b) for a in (1, 2, 3) for b in (0, 1, 2, 3)])
        # per command: one L' divisor in five; shapes of the L divisors
        self.lprime_share = {
            "ample": Deck(rng, (False,) * 4 + (True,)),
            "hyperelliptic": Deck(rng, (False,) * 4 + (True,)),
        }
        self.shape = {
            "ample": Deck(rng, ("multiple",) * 9 + ("roots",) * 6 + ("sum",) * 5),
            "hyperelliptic": Deck(rng, ("multiple",) * 4 + ("roots",) * 2 + ("sum",) * 2),
        }

    def family(self, kinds=None) -> tuple[str, int]:
        kind = (kinds or self.kind).deal()
        return kind, self.d_even.deal() if kind in ("L'", "M'") else self.d.deal()

    def l_divisor(self, cmd: str):
        """(d, coeffs, text, verdict) for an L-family divisor of known positivity.

        * a(L - Nhat) + bL is ample for d >= 3;
        * L - N_i1 - ... - N_ir is pseudo ample for r < min(d, 8);
        * the sum of the two is ample (ample plus nef), kept only where the
          program's root-search bound is defined (d p^2 > w^2 |S|).
        """
        shape = self.shape[cmd].deal()
        while True:
            if shape == "multiple":
                d = self.d_ample.deal()
                a, b = self.ab.deal()
                coeffs = [Fraction(a + b)] + [-a * HALF] * 8
                text = ("" if a + b == 1 else str(a + b)) + "L-" + ("" if a == 1 else str(a)) + "Nhat"
                return d, coeffs, text, "ample"
            d = self.d_ample.deal() if shape == "sum" else self.d.deal() + 1
            r = self.rng.randint(1, min(d - 1, 7))
            support = self.rng.sample(range(1, 9), r)
            coeffs = [Fraction(1)] + [Fraction(-1 if i in support else 0) for i in range(1, 9)]
            if shape == "roots":
                return d, coeffs, None, "pseudo_ample"
            c = self.rng.randint(1, 2)
            coeffs = [coeffs[0] + c] + [x - c * HALF for x in coeffs[1:]]
            w = max(-x for x in coeffs[1:])
            if d * coeffs[0] ** 2 > w * w * 8:
                return d, coeffs, None, "ample"

    def lprime_divisor(self):
        """(d, coeffs, text) for a named polarization of an L' family."""
        d, name = self.d_lprime.deal(), self.lprime_name.deal()
        if name == "L2" and d == 6:  # L2 is isotropic on L'_12, not big
            name = "L1"
        if name in ("L1", "L2"):
            first = glue_support(d)
            sup = first if name == "L1" else tuple(i for i in range(1, 9) if i not in first)
            coeffs = [HALF] + [-HALF if i in sup else Fraction(0) for i in range(1, 9)]
        else:
            p = 2 if name.startswith("2") else 1
            nh = 0 if name == "L" else 1
            coeffs = [Fraction(p)] + [-nh * HALF] * 8
        return d, coeffs, name

    def k3_ci(self):
        """(dims, degrees) of a complete intersection with trivial canonical class."""
        rng = self.rng
        while True:
            dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            if not 3 <= sum(dims) <= 7:
                continue
            nhyp = sum(dims) - 2
            cols = []
            for n in dims:
                parts = [0] * nhyp
                for _ in range(n + 1):
                    parts[rng.randrange(nhyp)] += 1
                cols.append(parts)
            degrees = [[col[i] for col in cols] for i in range(nhyp)]
            if all(any(deg) for deg in degrees):
                return dims, degrees

    def query(self) -> dict:
        cmd = self.cmd.deal()
        if cmd in ("disc", "correspond"):
            kind, param = self.family()
            return {"cmd": cmd, "argv": [cmd, family_label(kind, param)], "kind": kind, "param": param}
        if cmd == "glues":
            d = 4 * self.glue_quotient.deal() + self.glue_residue.deal()
            return {"cmd": cmd, "argv": [cmd, str(d)], "d": d}
        if cmd == "overlattice":
            d = self.d_even.deal()
            argv = [cmd, family_label("L", d)]
            if self.support_given.deal():
                size = 4 if d % 4 == 0 else self.rng.choice((2, 6))
                argv += ["--support", ",".join(map(str, sorted(self.rng.sample(range(1, 9), size))))]
            return {"cmd": cmd, "argv": argv, "d": d}
        if cmd in ("ample", "hyperelliptic"):
            if self.lprime_share[cmd].deal():
                d, coeffs, text = self.lprime_divisor()
                return divisor_query(cmd, "L'", d, coeffs, text)
            d, coeffs, text, verdict = self.l_divisor(cmd)
            return divisor_query(cmd, "L", d, coeffs, text, verdict if cmd == "ample" else None)
        if cmd == "evenset":
            kind, param = self.family(self.l_kind)
            return {"cmd": cmd, "argv": [cmd, family_label(kind, param)]}
        if cmd == "chow":
            dims, degrees = self.k3_ci()
            space = "x".join(f"P{n}" for n in dims)
            text = f"{space}: " + "+".join("(" + ",".join(map(str, deg)) + ")" for deg in degrees)
            return {"cmd": cmd, "argv": [cmd, text], "dims": dims, "degrees": degrees}
        family = self.table.deal()
        return {"cmd": cmd, "argv": [cmd, family], "family": family}

    def malformed(self) -> dict:
        """A usage error the CLI must reject with exit status 2 and a message."""
        rng = self.rng
        d = 2 * rng.randint(1, DMAX // 2)
        odd = 2 * rng.randint(1, DMAX // 2) - 1
        argv = rng.choice(
            [
                ["disc", f"L:2d={odd}"],
                ["ample", family_label("L", d), "--divisor", "L+Q"],
                ["overlattice", family_label("L", 2 * d), "--support", "1,2"],
                ["glues", "x"],
                ["correspond", f"L':2d={2 * odd}"],
                ["chow", f"P2: ({rng.randint(1, 5)})"],
            ]
        )
        return {"cmd": "malformed", "argv": argv}


def query_round(seed: int, size: int, malformed: int = 0) -> list[dict]:
    """`size` seeded queries in the MIX proportions, then `malformed` bad ones."""
    gen = Generator(seed)
    out = [gen.query() for _ in range(size)]
    return out + [gen.malformed() for _ in range(malformed)]


def bound_fault_queries() -> list[dict]:
    return [divisor_query("ample", "L", d, c) for d, c in BOUND_FAULT]
