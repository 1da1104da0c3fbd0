"""The stress family: (Z/m)^k acting on `base` generic x k twisted elliptic factors.

Twisted factors are generic curves for m = 2 and Eisenstein curves for m = 3.
Generator i multiplies twisted factor i by zeta_m and translates one base
coordinate by +-1/m; distinct generators use distinct base coordinates, so
k <= 2 * base.  The group is (Z/m)^k of order m^k, it acts freely, and every
report has a closed form (see `expected`).

A seed changes only the order of the factors and which base coordinate and
sign each translation uses.  It never changes m, k, base, |G| or the rank.
"""

from __future__ import annotations

import random

ZETA_LABEL = {2: "-1", 3: "zeta3"}
TWISTED_KIND = {2: "generic", 3: "eisenstein"}


def stress_document(m: int, k: int, base: int, seed: int) -> dict:
    """The builder document of one stress point for one seed."""
    if m not in ZETA_LABEL:
        raise ValueError(f"m must be 2 or 3, got {m}")
    if not 1 <= k <= 2 * base:
        raise ValueError(f"need 1 <= k <= 2 * base, got k = {k}, base = {base}")
    rng = random.Random(seed)
    factors = [("base", i) for i in range(base)] + [("twisted", i) for i in range(k)]
    rng.shuffle(factors)
    position = {f: p for p, f in enumerate(factors)}
    base_coords = rng.sample([(b, c) for b in range(base) for c in (0, 1)], k)
    generators = []
    for i, (b, c) in enumerate(base_coords):
        zetas = ["1"] * len(factors)
        zetas[position[("twisted", i)]] = ZETA_LABEL[m]
        translation = ["0"] * (2 * len(factors))
        sign = rng.choice((1, -1))
        translation[2 * position[("base", b)] + c] = f"{sign}/{m}"
        generators.append({"zetas": zetas, "translation": translation})
    return {
        "mode": "builder",
        "factors": [
            {"kind": "generic" if role == "base" else TWISTED_KIND[m], "label": f"{role[0]}{i}"}
            for role, i in factors
        ],
        "k_gens": [],
        "generators": generators,
    }


def expected(m: int, k: int, base: int) -> dict:
    """Closed-form values every command's report must show, for any seed."""
    return {
        "q": base,
        "group_order": m**k,
        "h_order": 1,
        "fiber_kind": "abelian",
        "fiber_dim": k,
        "canonical_order": m,
        "euler_char_structure_sheaf": 0,
    }
