"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written from scratch on plain tuples,
sets and Fractions, sharing no code with groupineq. The implementations
favour obviousness over speed; they are the ground truth the fast code
is tested against.

Permutations are tuples of 0-based images. Composition applies the right
factor first, matching the package convention: (a * b)(x) = a(b(x)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

Perm = Tuple[int, ...]


def p_identity(degree: int) -> Perm:
    return tuple(range(degree))


def p_mul(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[x]] for x in range(len(a)))


def p_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def p_from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> Perm:
    """Build a permutation from 1-based cycles, e.g. [[3, 4], [2, 4, 3]] is invalid
    (overlapping cycles are multiplied left to right instead of rejected here,
    because the oracle is only fed disjoint cycle lists)."""
    images = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


def generated_group(gens: Iterable[Perm], degree: int) -> FrozenSet[Perm]:
    """Naive fixpoint closure: keep multiplying until nothing new appears."""
    elems: Set[Perm] = {p_identity(degree)}
    gens = list(gens)
    for g in gens:
        elems.add(g)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for a in snapshot:
            for b in snapshot:
                c = p_mul(a, b)
                if c not in elems:
                    elems.add(c)
                    changed = True
        for a in snapshot:
            c = p_inv(a)
            if c not in elems:
                elems.add(c)
                changed = True
    return frozenset(elems)


def subgroup_closure(seed: Iterable[Perm], degree: int) -> FrozenSet[Perm]:
    return generated_group(seed, degree)


def brute_force_subgroups(elements: Sequence[Perm], degree: int) -> Set[FrozenSet[Perm]]:
    """Enumerate every subgroup of the group given by `elements`.

    Method: close every subset of at most 2 elements, then repeatedly extend
    each known subgroup by one extra element and close again, until no new
    subgroup shows up. Complete because any subgroup is reachable from a
    maximal proper subgroup (already found, by induction on order) plus one
    element outside it, and the 2-generated seeds cover the induction base.
    """
    found: Set[FrozenSet[Perm]] = set()
    for size in (0, 1, 2):
        for subset in combinations(elements, size):
            found.add(subgroup_closure(subset, degree))
    changed = True
    while changed:
        changed = False
        for sub in list(found):
            for g in elements:
                if g in sub:
                    continue
                bigger = subgroup_closure(list(sub) + [g], degree)
                if bigger not in found:
                    found.add(bigger)
                    changed = True
    return found


def product_set(h: Iterable[Perm], k: Iterable[Perm]) -> Set[Perm]:
    return {p_mul(a, b) for a in h for b in k}


def is_closed_under_mul(subset: Set[Perm]) -> bool:
    return all(p_mul(a, b) in subset for a in subset for b in subset)


def conjugate_set(x: Perm, h: Iterable[Perm]) -> FrozenSet[Perm]:
    """x H x^-1."""
    return frozenset(p_mul(p_mul(x, a), p_inv(x)) for a in h)


def is_normal_in(h: FrozenSet[Perm], ambient: Iterable[Perm]) -> bool:
    """Whether conjugating H by every element of `ambient` leaves it as it is."""
    return all(conjugate_set(x, h) == h for x in ambient)


@lru_cache(maxsize=None)
def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, q))


def valuation(x: Fraction, q: int) -> int:
    """The q-adic valuation of a positive rational, for a prime q."""
    num, den = x.numerator, x.denominator
    if num <= 0 or not is_prime(q):
        raise ValueError(f"valuation needs a positive rational and a prime, got {x} and {q}")
    v = 0
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


def canonical_tuple_key(elements: Iterable[Perm], lattice: Sequence[FrozenSet[Perm]],
                        subgroups: Sequence[FrozenSet[Perm]]) -> Tuple[int, ...]:
    """Least tuple of positions in `lattice` over the orbit of `subgroups`
    under simultaneous conjugation by `elements`.

    Two tuples are conjugate exactly when their keys coincide.
    """
    position = {s: i for i, s in enumerate(lattice)}
    return min(tuple(position[conjugate_set(x, s)] for s in subgroups) for x in elements)


def evaluate_fraction(parent_order: int,
                      subset_orders: Dict[FrozenSet[int], int],
                      coeffs: Dict[FrozenSet[int], int]) -> Fraction:
    """Exact value of prod over A of (|G| / |G_A|) ** c_A.

    The linear form sum c_A * H(X_A) with H(X_A) = log(|G|/|G_A|) is
    nonnegative exactly when this product is >= 1.
    """
    value = Fraction(1)
    for subset, c in coeffs.items():
        if c == 0:
            continue
        value *= Fraction(parent_order, subset_orders[frozenset(subset)]) ** c
    return value


def subset_intersection_orders(subgroups: Sequence[FrozenSet[Perm]]) -> Dict[FrozenSet[int], int]:
    """All nonempty subset intersection orders for a tuple of subgroups,
    keyed by frozensets of 1-based positions."""
    n = len(subgroups)
    orders: Dict[FrozenSet[int], int] = {}
    for size in range(1, n + 1):
        for positions in combinations(range(1, n + 1), size):
            inter = set(subgroups[positions[0] - 1])
            for p in positions[1:]:
                inter &= subgroups[p - 1]
            orders[frozenset(positions)] = len(inter)
    return orders


def variable_symmetries(coeffs: Dict[FrozenSet[int], int]) -> List[Perm]:
    """Every permutation of the variables 1..k (k the largest one used)
    that maps the linear form sum c_A H(X_A) onto itself, as 0-based
    images; the identity is included."""
    k = max(max(subset) for subset in coeffs)
    return [perm for perm in permutations(range(k))
            if {frozenset(perm[i - 1] + 1 for i in subset): c
                for subset, c in coeffs.items()} == coeffs]


def symmetry_quotient_counts(m: int, n: int,
                             forms: Sequence[Dict[FrozenSet[int], int]],
                             verdict: Callable[[Tuple[int, ...], int], Tuple[bool, bool]],
                             domain: Callable[[Tuple[int, ...]], bool] = lambda t: True
                             ) -> Dict[str, int]:
    """What a scan of every n-tuple over m lattice indices reports when
    inequality k is evaluated only on tuples that are lexicographically
    least in their orbit under its variable symmetries.

    forms[k] is inequality k's coefficient dict over 1-based variables;
    verdict(t, k) gives (holds, both sides equal) for inequality k on the
    index tuple t. Only tuples inside `domain` are scanned, and an image
    outside it does not count against t. A scanned tuple counts as
    evaluated when it is least for some inequality; the rest are pruned.
    """
    groups = [variable_symmetries(f) for f in forms]
    counts = dict.fromkeys(("evaluated", "pruned", "equalities", "violations"), 0)
    for t in product(range(m), repeat=n):
        if not domain(t):
            continue
        least = []
        for k, perms in enumerate(groups):
            images = (tuple(t[p[j]] for j in range(len(p))) + t[len(p):] for p in perms)
            if all(u >= t or not domain(u) for u in images):
                least.append(k)
        counts["evaluated" if least else "pruned"] += 1
        for k in least:
            holds, equal = verdict(t, k)
            counts["violations"] += not holds
            counts["equalities"] += equal
    return counts


def log_weights_exact(order: int, degree: int, weights: Dict[int, int]) -> bool:
    """Whether sum_p x_p * weights[p] has the sign of prod_p p**x_p - 1 at
    every integer vector x with |x_p| <= v_p(order) * degree.

    A plain walk over the whole box, comparing the two halves of the
    product as Python ints.
    """
    factors: Dict[int, int] = {}
    n, d = order, 2
    while n > 1:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    primes = sorted(factors)
    box = [range(-factors[p] * degree, factors[p] * degree + 1) for p in primes]
    for x in product(*box):
        num = den = 1
        for p, v in zip(primes, x):
            if v > 0:
                num *= p ** v
            else:
                den *= p ** -v
        weighted = sum(v * weights[p] for p, v in zip(primes, x))
        if (weighted > 0) - (weighted < 0) != (num > den) - (num < den):
            return False
    return True


# A tiny cycle-notation reader for oracle-side inputs. Accepts strings such
# as "(1,2)(3,4)" denoting one permutation (product of disjoint cycles).
def parse_disjoint_cycles(text: str, degree: int) -> Perm:
    cycles: List[List[int]] = []
    current: List[int] = []
    number = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            current = []
        elif ch == ")":
            if number:
                current.append(int(number))
                number = ""
            depth -= 1
            cycles.append(current)
        elif ch.isdigit():
            number += ch
        elif ch in ", \t":
            if number:
                current.append(int(number))
                number = ""
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    seen: Set[int] = set()
    for cyc in cycles:
        for pt in cyc:
            if pt in seen:
                raise ValueError(f"cycles in {text!r} are not disjoint")
            seen.add(pt)
    return p_from_cycles(cycles, degree)


def s_n_elements(n: int) -> List[Perm]:
    return [tuple(p) for p in permutations(range(n))]


# ---------------------------------------------------------------------------
# Regex-based expansion of inequality texts into entropy coefficients.
#
# This is the reference the DSL parser is checked against. It leans on the
# textbook identities
#     H(A|B)    = H(AB) - H(B)
#     I(A;B|C)  = H(AC) + H(BC) - H(ABC) - H(C)
# and nothing else. Variables are 1-based. The only structural assumption is
# that '+' and '-' never occur inside parentheses, which holds for the whole
# grammar (quantities contain ';', '|', ',' and variables only).

import re

_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+)?\s*([HI])\s*\(([^()]*)\)\s*$")
_VAR_RE = re.compile(r"X\s*(\d+)")


def _var_set(text: str) -> FrozenSet[int]:
    found = [int(m) for m in _VAR_RE.findall(text)]
    if not found and text.strip():
        raise ValueError(f"no variables in argument {text!r}")
    return frozenset(found)


def _expand_quantity(kind: str, body: str, coeff: int,
                     out: Dict[FrozenSet[int], int]) -> None:
    def add(subset: FrozenSet[int], c: int) -> None:
        if not subset or c == 0:
            return
        new = out.get(subset, 0) + c
        if new:
            out[subset] = new
        else:
            out.pop(subset, None)

    parts = body.split("|")
    cond = _var_set(parts[1]) if len(parts) == 2 else frozenset()
    if len(parts) > 2:
        raise ValueError(f"more than one '|' in {body!r}")
    if kind == "H":
        main = _var_set(parts[0])
        add(main | cond, coeff)
        add(cond, -coeff)
    else:
        left_txt, right_txt = parts[0].split(";")
        left = _var_set(left_txt)
        right = _var_set(right_txt)
        add(left | cond, coeff)
        add(right | cond, coeff)
        add(left | right | cond, -coeff)
        add(cond, -coeff)


def _expand_side(expr: str, sign: int,
                 out: Dict[FrozenSet[int], int]) -> None:
    if expr.strip() == "0":
        return
    # Split into signed terms; safe because +/- never nest inside parens.
    pieces = re.findall(r"[+-]?[^+-]+", expr)
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if m is None:
            raise ValueError(f"cannot read term {piece!r}")
        sgn = -1 if m.group(1) == "-" else 1
        mult = int(m.group(2)) if m.group(2) else 1
        _expand_quantity(m.group(3), m.group(4), sign * sgn * mult, out)


def expand_inequality(text: str) -> Dict[FrozenSet[int], int]:
    """Coefficients of the form sum c_A H(X_A) >= 0 equivalent to `text`.

    '<=' and '>=' are both accepted; a bare expression is read as >= 0.
    """
    out: Dict[FrozenSet[int], int] = {}
    if "<=" in text:
        lhs, rhs = text.split("<=")
        _expand_side(lhs, -1, out)
        _expand_side(rhs, +1, out)
    elif ">=" in text:
        lhs, rhs = text.split(">=")
        _expand_side(lhs, +1, out)
        _expand_side(rhs, -1, out)
    else:
        _expand_side(text, +1, out)
    return out


if __name__ == "__main__":
    # Print the derived constants that get frozen into the test-suite.
    s3 = s_n_elements(3)
    s4 = s_n_elements(4)
    print("S3 subgroup count:", len(brute_force_subgroups(s3, 3)))
    print("S4 subgroup count:", len(brute_force_subgroups(s4, 4)))

    g1 = subgroup_closure([parse_disjoint_cycles("(3,4)", 4),
                           parse_disjoint_cycles("(2,4,3)", 4)], 4)
    g2 = subgroup_closure([parse_disjoint_cycles("(1,3)", 4),
                           parse_disjoint_cycles("(1,3,2)", 4)], 4)
    print("|G1| =", len(g1), " |G2| =", len(g2))
    print("|G1 n G2| =", len(g1 & g2))
    ps = product_set(g1, g2)
    print("|G1G2| =", len(ps), " closed:", is_closed_under_mul(ps))

    big = subgroup_closure([parse_disjoint_cycles("(1,2)", 4),
                            parse_disjoint_cycles("(1,2,3,4)", 4)], 4)
    print("|<(1,2),(1,2,3,4)>| =", len(big))

    s5 = s_n_elements(5)
    print("S5 subgroup count:", len(brute_force_subgroups(s5, 5)))
