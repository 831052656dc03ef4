"""Seeded input generators for the fqav benchmark.

Each workload is a list of ``Case`` objects: the JSON text handed to
``fqav``, and what the benchmark expects back (the group order for a valid
input, the ``error[code]`` for a malformed one).  The seed varies only the
presentation of the fixed groups (generator order, which of two equal
factors carries a reflection, which primitive root is used); group orders
never change.  ``small-mixed`` is one fixed random corpus, and its seed
shuffles the order of the inputs and of their generators.

The group orders are computed here by an independent closure on the
rational representation, so the generator does not depend on the code it
measures.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# CM generator tau as a 2x2 integer block in lattice coordinates (1, tau)
_TAU = {"zeta4": ((0, -1), (1, 0)), "zeta6": ((0, -1), (1, 1))}

# roots of unity as (c, d) meaning c + d*tau
_Z4 = {1: (0, 1), 3: (0, -1)}                       # i, -i
_Z6 = {1: (0, 1), 2: (-1, 1), 4: (0, -1), 5: (1, -1)}  # zeta6^k
_ONE, _ZERO = (1, 0), (0, 0)


@dataclass(frozen=True)
class Case:
    name: str
    text: str                 # the JSON document fed to fqav
    order: int | None         # group order of a valid input
    error: str | None = None  # expected error code of a malformed input

    @property
    def valid(self):
        return self.error is None


# ---------------------------------------------------------------------------
# independent closure on the rational representation

def _block(cm, c, d):
    if d == 0:
        return ((c, 0), (0, c))
    t = _TAU[cm]
    return ((c + d * t[0][0], d * t[0][1]), (d * t[1][0], c + d * t[1][1]))


def rational_matrix(factors, holonomy):
    n = len(factors)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        for k in range(n):
            c, d = holonomy[j][k]
            if (c, d) == (0, 0):
                continue
            blk = _block(factors[k]["cm"], c, d)
            for a in range(2):
                for b in range(2):
                    out[2 * j + a][2 * k + b] = blk[a][b]
    return tuple(tuple(r) for r in out)


def _mod1(v):
    return tuple(x - (x.numerator // x.denominator) for x in v)


def _compose(g, h):
    (w1, a1), (w2, a2) = g, h
    size = len(w1)
    w = tuple(tuple(sum(w1[i][k] * w2[k][j] for k in range(size)) for j in range(size))
              for i in range(size))
    a = _mod1(tuple(a1[i] + sum(w1[i][k] * a2[k] for k in range(size))
                    for i in range(size)))
    return w, a


def _det(m):
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def group_order(doc, cap):
    """Order of the group the document generates, or None above ``cap``."""
    factors = doc["factors"]
    size = 2 * len(factors)
    gens = [(rational_matrix(factors, g["holonomy"]),
             _mod1(tuple(Fraction(t) for t in g["translation"])))
            for g in doc["generators"]]
    ident = (tuple(tuple(int(i == j) for j in range(size)) for i in range(size)),
             tuple(Fraction(0) for _ in range(size)))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = _compose(e, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# document helpers

def _doc(cms, gens):
    return {"schema_version": 1,
            "factors": [{"cm": cm} if cm != "generic" else {"cm": cm, "label": label}
                        for cm, label in cms],
            "generators": [{"holonomy": [[list(b) for b in row] for row in hol],
                            "translation": [str(t) for t in trans]}
                           for hol, trans in gens]}


def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)]


def _perm(images):
    """Holonomy sending factor k to factor images[k]."""
    n = len(images)
    rows = [[_ZERO] * n for _ in range(n)]
    for k, j in enumerate(images):
        rows[j][k] = _ONE
    return rows


def _zero(n):
    return ["0"] * (2 * n)


def _fixed_case(rng, name, cm, n, gens, order):
    gens = list(gens)
    rng.shuffle(gens)
    doc = _doc([(cm, "")] * n, gens)
    return Case(name, json.dumps(doc), order)


# ---------------------------------------------------------------------------
# workloads

def ramified_cm(seed):
    """Non-quasietale CM groups with a large ramification subgroup."""
    rng = random.Random(f"ramified-cm/{seed}")
    cases = []

    # zeta4^2 x| C2 and zeta6^2 x| C2: a diagonal CM reflection and a swap
    for cm, roots, order in (("zeta4", _Z4, 32), ("zeta6", _Z6, 72)):
        root = roots[rng.choice([1, max(roots)])]
        pos = rng.randrange(2)
        refl = _diag(*[root if i == pos else _ONE for i in range(2)])
        cases.append(_fixed_case(rng, f"{cm}^2:C2", cm, 2,
                                 [(refl, _zero(2)), (_perm([1, 0]), _zero(2))], order))

    # zeta4^3: reflection on one of the swapped factors, swap carrying a
    # 1/2-translation along the third factor (two decomposition stages)
    root = _Z4[rng.choice([1, 3])]
    pos = rng.randrange(2)
    refl = _diag(*[root if i == pos else _ONE for i in range(3)])
    half = ["0", "0", "0", "0", "1/2", "0"]
    cases.append(_fixed_case(rng, "zeta4^3:C2+t", "zeta4", 3,
                             [(refl, _zero(3)), (_perm([1, 0, 2]), half)], 32))

    # zeta6^3: diag(zeta6,1,1), diag(1,zeta3,1) on either of the first two
    # factors, and a 1/2-translation along the third
    z6 = _Z6[rng.choice([1, 5])]
    z3 = _Z6[rng.choice([2, 4])]
    first = rng.randrange(2)
    e6 = [_ONE] * 3
    e3 = [_ONE] * 3
    e6[first], e3[1 - first] = z6, z3
    cases.append(_fixed_case(rng, "zeta6^3:mu6xmu3+t", "zeta6", 3,
                             [(_diag(*e6), _zero(3)), (_diag(*e3), _zero(3)),
                              (_diag(_ONE, _ONE, _ONE), half)], 36))
    return cases


def _sl_pair(rng, root, inv):
    """Two of the three diag(zeta, zeta^-1, 1)-type generators."""
    pairs = [(0, 1), (1, 2), (0, 2)]
    rng.shuffle(pairs)
    out = []
    for i, j in pairs[:2]:
        if rng.randrange(2):
            i, j = j, i
        e = [_ONE] * 3
        e[i], e[j] = root, inv
        out.append((_diag(*e), _zero(3)))
    return out


def quasietale_sl(seed):
    """Special-linear groups: quasietale, Reid-Tai holds, ages everywhere."""
    rng = random.Random(f"quasietale-sl/{seed}")
    cases = []
    z3 = _Z6[rng.choice([2, 4])]
    cases.append(_fixed_case(rng, "zeta6^3/mu3", "zeta6", 3,
                             [(_diag(z3, z3, z3), _zero(3))], 3))
    k = rng.choice([1, 5])
    cases.append(_fixed_case(rng, "zeta6^3:SL-diag", "zeta6", 3,
                             _sl_pair(rng, _Z6[k], _Z6[6 - k]), 36))
    for cm, roots, order in (("zeta4", _Z4, 48), ("zeta6", _Z6, 108)):
        k = rng.choice([1, max(roots)])
        cycle = _perm(rng.choice([[1, 2, 0], [2, 0, 1]]))
        gens = _sl_pair(rng, roots[k], roots[max(roots) + 1 - k])
        cases.append(_fixed_case(rng, f"{cm}^3:SL-diag:C3", cm, 3,
                                 gens + [(cycle, _zero(3))], order))
    return cases


# small-mixed: random small actions drawn like the cross-theorem acceptance
# criterion (n <= 3, block entries in {-1, 0, 1}, 2-torsion translations,
# closure cap 48).  Draws of order above 4 are rejected, so per-command fixed
# costs dominate; the kept draws follow the criterion's own distribution.
_POOL = (("zeta4", ""), ("zeta6", ""), ("generic", "E"), ("generic", "F"))
SMALL_CAP = 48
SMALL_MAX_ORDER = 4
SMALL_VALID = 150
MALFORMED = ("bad-json", "bad-rational", "not-automorphism", "bad-schema", "cap-exceeded")
MALFORMED_EACH = 10


def _hom(f1, f2):
    return f1[0] == f2[0] and (f1[0] != "generic" or f1[1] == f2[1])


def _random_holonomy(rng, cms, max_order=12):
    n = len(cms)
    rows = [[(rng.randint(-1, 1), rng.randint(-1, 1)) if _hom(cms[i], cms[j])
             and cms[i][0] != "generic"
             else ((rng.randint(-1, 1), 0) if _hom(cms[i], cms[j]) else _ZERO)
             for j in range(n)] for i in range(n)]
    factors = [{"cm": cm} for cm, _ in cms]
    w = rational_matrix(factors, rows)
    if abs(_det(w)) != 1:
        return None
    size = len(w)
    ident = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    zero = (Fraction(0),) * size
    power = (w, zero)
    for _ in range(max_order):
        if power[0] == ident:
            return rows
        power = _compose(power, (w, zero))
    return None


def _random_valid(rng):
    while True:
        cms = [rng.choice(_POOL) for _ in range(rng.randint(1, 3))]
        gens = []
        for _ in range(rng.randint(1, 2)):
            hol = _random_holonomy(rng, cms)
            if hol is not None:
                trans = [Fraction(rng.randrange(d), d)
                         for d in (rng.choice((1, 1, 2)) for _ in range(2 * len(cms)))]
                gens.append((hol, trans))
        if not gens:
            continue
        doc = _doc(cms, gens)
        order = group_order(doc, SMALL_CAP)
        if order is not None:
            return doc, order


def _malformed(rng, kind, doc, order):
    """Break a valid document so that fqav must answer error[kind]."""
    n = len(doc["factors"])
    if kind == "bad-json":
        text = json.dumps(doc)
        return text[: rng.randrange(1, len(text) - 1)]
    if kind == "bad-rational":
        g = rng.choice(doc["generators"])
        g["translation"][rng.randrange(2 * n)] = rng.choice([0.5, 0.0, 1e-3])
    elif kind == "not-automorphism":
        g = rng.choice(doc["generators"])
        i = rng.randrange(n)
        # scaling row i by 2 doubles the determinant, so it is never +-1
        g["holonomy"][i] = [[2 * c, 2 * d] for c, d in g["holonomy"][i]]
    elif kind == "bad-schema":
        g = rng.choice(doc["generators"])
        if rng.randrange(2):
            g["holonomy"] = g["holonomy"][:-1] or [[0, 0]]
        else:
            g["holonomy"].append([[0, 0]] * n)
    elif kind == "cap-exceeded":
        doc["options"] = {"group_cap": rng.randint(1, order - 1)}
    return json.dumps(doc)


@functools.lru_cache(maxsize=1)
def _small_corpus():
    """The fixed corpus: valid actions of order at most ``SMALL_MAX_ORDER``,
    one malformed input after every three valid ones."""
    rng = random.Random("small-mixed/corpus")
    valid = []
    while len(valid) < SMALL_VALID:
        doc, order = _random_valid(rng)
        if order <= SMALL_MAX_ORDER:
            valid.append((json.dumps(doc), order))
    broken = []
    for kind in MALFORMED * MALFORMED_EACH:
        doc, order = _random_valid(rng)
        while kind == "cap-exceeded" and order < 2:
            doc, order = _random_valid(rng)
        broken.append((_malformed(rng, kind, doc, order), kind))
    rng.shuffle(broken)
    cases = []
    for i, (text, order) in enumerate(valid):
        cases.append(Case(f"small-{len(cases):03d}", text, order))
        if i % 3 == 2 and broken:
            text, kind = broken.pop()
            cases.append(Case(f"small-{len(cases):03d}", text, None, kind))
    return tuple(cases)


def small_mixed(seed):
    """The fixed corpus in a seeded presentation: the order of the inputs
    and of each input's generators.  A corpus drawn per seed varied the work
    by about 12% between seeds."""
    rng = random.Random(f"small-mixed/{seed}")
    cases = []
    for case in _small_corpus():
        if case.error != "bad-json":
            doc = json.loads(case.text)
            rng.shuffle(doc["generators"])
            case = dataclasses.replace(case, text=json.dumps(doc))
        cases.append(case)
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "ramified-cm": ramified_cm,
    "quasietale-sl": quasietale_sl,
    "small-mixed": small_mixed,
}
