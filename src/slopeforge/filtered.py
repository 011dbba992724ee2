"""Slope filtrations realized on finite groups through break chains.

A break chain fixes a group G together with strictly descending normal
subgroups H_1 > H_2 > ... > H_k attached to strictly increasing positive
rational breaks: the filtration subgroup at level lambda is H_i for lambda in
(lambda_(i-1), lambda_i] and trivial beyond the last break, so left-continuity
holds by the interval semantics.  H_1 is the wild subgroup.

Graded slope pieces of a character are cut out by invariant dimensions:
dim gr^0 = dim V^(H_1) and dim gr^(lambda_i) = dim V^(H_(i+1)) - dim V^(H_i).
Invariant dimensions and invariant characters are sums over H of the integer
view of the character (`ClassFunction.int_view`), on Python ints: the power
basis of Q(zeta_n) is an integral basis, so the sums are exact, and a result
is accepted only when it is rational (every non-constant coefficient is 0).
A class function without a view (its values need a conductor above 2|G|,
which no character does) is summed value by value over the same elements.
The Swan conductor is the height of the resulting Newton polygon.  Lower
chains (integer-indexed ramification data) convert to break chains through
the Herbrand transition function phi(u) = integral of dt / [G_0 : G_t].

Break chains are arbitrary: integrality of Newton polygons is a predicate to
check, never an enforced invariant, so counterexample chains are allowed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Cyclotomic, is_prime
from .groups import FiniteGroup, Subgroup
from .newton import NewtonPolygon, SlopeMultiset, polygon_from_slopes
from .reptheory import (CharacterTable, ClassFunction, inner_product_int,
                        trivial_character)


class FilteredError(ValueError):
    pass


@dataclass(frozen=True)
class BreakChain:
    """Strictly increasing positive breaks with strictly descending normal
    subgroups; the subgroup at lambda is subgroups[i] on (breaks[i-1], breaks[i]]
    and trivial past the last break.  slope_decomposition reads a chain this
    way: the piece of slope breaks[i] has dimension
    dim V^subgroups[i+1] - dim V^subgroups[i], where V^1 = V past the end."""

    group: FiniteGroup
    breaks: tuple[Fraction, ...]
    subgroups: tuple[Subgroup, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.subgroups):
            raise FilteredError("one subgroup per break required")
        prev = Fraction(0)
        for b in self.breaks:
            if not isinstance(b, Fraction) or b <= prev:
                raise FilteredError("breaks must be strictly increasing and positive")
            prev = b
        prev_set = None
        for H in self.subgroups:
            if H.parent is not self.group:
                raise FilteredError("subgroups must live in the chain's group")
            if H.order == 1:
                raise FilteredError("chain subgroups must be non-trivial")
            if not H.is_normal():
                raise FilteredError("chain subgroups must be normal")
            if prev_set is not None and not H.element_set < prev_set:
                raise FilteredError("subgroups must strictly descend")
            prev_set = H.element_set

    @property
    def wild_subgroup(self) -> Subgroup | None:
        return self.subgroups[0] if self.subgroups else None

    def scaled(self, n: int) -> BreakChain:
        """Multiply every break by n, keeping the subgroups."""
        if not isinstance(n, int) or n < 1:
            raise FilteredError("scaling factor must be a positive integer")
        return BreakChain(self.group, tuple(b * n for b in self.breaks),
                          self.subgroups)


@dataclass(frozen=True)
class LowerChain:
    """Integer-indexed descending normal subgroups G_0 >= G_1 >= ...; indices
    beyond the stored list are trivial."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]  # subgroups[i] = G_i, including G_0

    def __post_init__(self):
        if not self.subgroups:
            raise FilteredError("a lower chain needs at least G_0")
        if self.subgroups[0].order != self.group.order:
            raise FilteredError("G_0 must be the whole group")
        prev = None
        for H in self.subgroups:
            if H.parent is not self.group:
                raise FilteredError("subgroups must live in the chain's group")
            if not H.is_normal():
                raise FilteredError("lower chain subgroups must be normal")
            if prev is not None and not H.element_set <= prev:
                raise FilteredError("lower chain must descend")
            prev = H.element_set

    def at(self, i: int) -> Subgroup:
        if i < len(self.subgroups):
            return self.subgroups[i]
        return self.group.trivial_subgroup()

    @property
    def depth(self) -> int:
        """Smallest i with G_i trivial."""
        i = len(self.subgroups)
        while i > 0 and self.subgroups[i - 1].order == 1:
            i -= 1
        return i


@dataclass(frozen=True)
class PiecewiseLinear:
    """Increasing piecewise-linear function through (0,0) with rational data."""

    vertices: tuple[tuple[Fraction, Fraction], ...]  # includes (0, 0)
    final_slope: Fraction

    def __call__(self, u: Fraction) -> Fraction:
        u = Fraction(u)
        if u < 0:
            raise FilteredError("arguments are non-negative")
        xs = self.vertices
        for (x0, y0), (x1, y1) in zip(xs, xs[1:]):
            if u <= x1:
                return y0 + (y1 - y0) * (u - x0) / (x1 - x0)
        x_last, y_last = xs[-1]
        return y_last + self.final_slope * (u - x_last)


def herbrand_phi(chain: LowerChain) -> PiecewiseLinear:
    """phi(u) = integral from 0 to u of dt / [G_0 : G_t], exactly.

    The slope on (i-1, i] is 1 / [G_0 : G_i]; breakpoints are recorded at the
    integers where the index jumps.
    """
    g0 = chain.group.order
    depth = chain.depth
    vertices = [(Fraction(0), Fraction(0))]
    y = Fraction(0)
    for i in range(1, depth + 1):
        slope = Fraction(chain.at(i).order, g0)
        y += slope
        if chain.at(i).order != chain.at(i + 1).order:
            vertices.append((Fraction(i), y))
    return PiecewiseLinear(tuple(vertices), Fraction(1, g0))


def upper_from_lower(chain: LowerChain) -> BreakChain:
    """Renumber a lower chain into a break chain via the Herbrand function.

    Breaks sit at phi(i) for the integers i >= 1 with G_i != G_(i+1), which
    are the vertices of phi after the origin (G_i is non-trivial there); the
    subgroup on the interval up to phi(i) is G_i.  A chain with trivial G_1
    is entirely tame and yields the empty break chain.
    """
    jumps = herbrand_phi(chain).vertices[1:]
    return BreakChain(chain.group, tuple(y for _, y in jumps),
                      tuple(chain.at(int(x)) for x, _ in jumps))


def lower_from_upper(chain: BreakChain) -> LowerChain:
    """Inverse Herbrand transform; requires the transformed breakpoints to be
    integers (they are whenever the upper breaks are integers)."""
    G = chain.group
    psi_vals = []
    prev_break = Fraction(0)
    psi = Fraction(0)
    for b, H in zip(chain.breaks, chain.subgroups):
        psi += (b - prev_break) * Fraction(G.order, H.order)
        if psi.denominator != 1:
            raise FilteredError(
                "inverse transition hits a non-integer lower break"
            )
        psi_vals.append(int(psi))
        prev_break = b
    subs = [G.full_subgroup()]
    for (u, H) in zip(psi_vals, chain.subgroups):
        while len(subs) <= u:
            subs.append(H)
    return LowerChain(G, tuple(subs))


# -- slope decomposition and Swan conductors -----------------------------------


def _summed_rows(rows, classes) -> list[int]:
    """The sum of rows[k] over the class indices k, with repetition."""
    total = [0] * len(rows[0])
    for k, m in Counter(classes).items():
        for i, x in enumerate(rows[k]):
            if x:
                total[i] += m * x
    return total


def _cyclotomic_sum(chi: ClassFunction, elements) -> Cyclotomic:
    """The sum of chi over the elements, value by value: the route of a
    class function without an integer view."""
    return sum((chi.value_at(x) for x in elements), Cyclotomic.rational(0))


def invariant_dimension(chi: ClassFunction, H: Subgroup) -> int:
    """dim of the H-fixed subspace: the average of chi over H, summed on the
    integer view of chi."""
    G = chi.group
    if H.parent is not G:
        raise FilteredError("subgroup must live in the character's group")
    if chi.int_view is None:
        value = _cyclotomic_sum(chi, H.elements)
        total, *rest = value.nums
        scale = value.den * H.order
    else:
        _, D, rows = chi.int_view
        class_of = G.class_of
        total, *rest = _summed_rows(rows, (class_of[h] for h in H.elements))
        scale = D * H.order
    dim, r = divmod(total, scale)
    if r or dim < 0 or any(rest):
        raise FilteredError(
            f"not a character: invariant dimension under a subgroup of order "
            f"{H.order} is not a non-negative integer")
    return int(dim)


def _graded(chain: BreakChain, parts: list) -> list[tuple[Fraction, object]]:
    """The graded levels from the invariants `parts` under H_1, ..., H_k and
    the trivial group: (0, parts[0]), then (b_i, parts[i+1] - parts[i])."""
    return [(Fraction(0), parts[0])] + [
        (b, parts[i + 1] - parts[i]) for i, b in enumerate(chain.breaks)]


def slope_decomposition(chain: BreakChain, chi: ClassFunction) -> SlopeMultiset:
    """Slopes of a character under the chain, with graded multiplicities."""
    if chi.group is not chain.group:
        raise FilteredError("character must live on the chain's group")
    deg = chi.degree
    if deg.denominator != 1:
        raise FilteredError("input must be a character")
    dims = [invariant_dimension(chi, H) for H in chain.subgroups] + [int(deg)]
    pairs = _graded(chain, dims)
    # pairs[0] is an invariant dimension, or the degree that SlopeMultiset checks
    if any(mult < 0 for _, mult in pairs[1:]):
        raise FilteredError("invariant dimensions must increase down the chain")
    ms = SlopeMultiset.from_pairs(pairs)
    if ms.total_dimension != int(deg):
        raise AssertionError("graded multiplicities must sum to the degree")
    return ms


def newton_polygon(chain: BreakChain, chi: ClassFunction) -> NewtonPolygon:
    return polygon_from_slopes(slope_decomposition(chain, chi))


def swan_conductor(chain: BreakChain, chi: ClassFunction) -> Fraction:
    """Sum of slope * multiplicity = height of the Newton polygon."""
    return newton_polygon(chain, chi).height


def swan_lower_oracle(chain: LowerChain, chi: ClassFunction) -> Fraction:
    """Independent lower-numbering formula:
    sum over i >= 1 of (deg chi - dim V^(G_i)) / [G_0 : G_i]."""
    G = chain.group
    deg = int(chi.degree)
    total = Fraction(0)
    for i in range(1, chain.depth + 1):
        Gi = chain.at(i)
        total += Fraction(deg - invariant_dimension(chi, Gi), G.order // Gi.order)
    return total


def hasse_arf_check(chain: BreakChain, chi: ClassFunction) -> bool:
    """True iff the character's Newton polygon has integer vertices."""
    return newton_polygon(chain, chi).is_integral()


# -- graded pieces as genuine characters ----------------------------------------


def invariant_character(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Character of the H-fixed subspace of a normal subgroup H:
    g -> (1/|H|) sum over h of chi(gh), summed on the integer view of chi."""
    G = chi.group
    if H.parent is not G:
        raise FilteredError("subgroup must live in the character's group")
    if not H.is_normal():
        raise FilteredError("subgroup must be normal in the character's group")
    mul = G.mul
    vals = []
    if chi.int_view is None:
        for g in G.class_representatives:
            total = _cyclotomic_sum(chi, (mul(g, h) for h in H.elements))
            vals.append(total * Fraction(1, H.order))
        return ClassFunction(G, tuple(vals))
    n, D, rows = chi.int_view
    class_of, scale = G.class_of, D * H.order
    for g in G.class_representatives:
        total = _summed_rows(rows, (class_of[mul(g, h)] for h in H.elements))
        vals.append(Cyclotomic(n, total, scale, _reduced=True))
    return ClassFunction(G, tuple(vals))


def graded_characters(chain: BreakChain,
                      chi: ClassFunction) -> list[tuple[Fraction, ClassFunction]]:
    """The graded pieces as (slope, character) pairs, zero pieces omitted."""
    parts = [invariant_character(chi, H) for H in chain.subgroups] + [chi]
    return [(s, piece) for s, piece in _graded(chain, parts)
            if int(piece.degree)]


def graded_pieces_disjoint(chain: BreakChain, chi: ClassFunction,
                           table: CharacterTable) -> bool:
    """Distinct graded pieces share no irreducible constituent and every
    constituent of the character sits in exactly one piece (equivalently,
    each of its irreducible constituents carries a single slope)."""
    if table.group is not chain.group:
        raise FilteredError("table must belong to the chain's group")
    pieces = graded_characters(chain, chi)
    supports = []
    for _, piece in pieces:
        mults = table.decompose(piece)
        if any(m < 0 for m in mults):
            return False
        supports.append({i for i, m in enumerate(mults) if m})
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    total = table.decompose(chi)
    covered = set().union(*supports) if supports else set()
    return covered == {i for i, m in enumerate(total) if m}


def irreducible_slope(chain: BreakChain, chi: ClassFunction) -> Fraction:
    """The single slope of an irreducible character under the chain."""
    ms = slope_decomposition(chain, chi)
    if len(ms.entries) != 1:
        raise FilteredError("character does not have a single slope")
    return ms.entries[0][0]


def tensor_bound_check(chain: BreakChain, chi: ClassFunction,
                       psi: ClassFunction) -> bool:
    """Check the product's slopes against the tensor constraints of the factors.

    The exact part must appear with at least its multiplicity at each slope;
    the remaining mass must fit under the bounded part (mass at slope s needs
    a bound >= s), a greedy matching condition on the ordered slopes.
    """
    from .newton import tensor_slope_bound

    dec_chi = slope_decomposition(chain, chi)
    dec_psi = slope_decomposition(chain, psi)
    dec_prod = slope_decomposition(chain, chi * psi)
    exact, bounded = tensor_slope_bound(dec_chi, dec_psi)
    remaining: dict[Fraction, int] = {s: m for s, m in dec_prod.entries}
    for s, m in exact.entries:
        if remaining.get(s, 0) < m:
            return False
        remaining[s] -= m
    # Hall condition on a totally ordered set: for every threshold, the mass
    # above it must be coverable by bounds above it
    rem_sorted = sorted(remaining.items(), reverse=True)
    bound_sorted = sorted(bounded, reverse=True)
    thresholds = {s for s, m in rem_sorted if m} | {b for b, _ in bound_sorted}
    for t in thresholds:
        need = sum(m for s, m in rem_sorted if s >= t)
        have = sum(m for b, m in bound_sorted if b >= t)
        if need > have:
            return False
    return sum(m for _, m in rem_sorted) == sum(m for _, m in bound_sorted)


# -- predicates from the structural theory ---------------------------------------


def is_p_group(H: Subgroup, p: int) -> bool:
    n = H.order
    while n % p == 0:
        n //= p
    return n == 1


def prime_power_dim_check(chain: BreakChain, chi: ClassFunction, p: int) -> bool:
    """If End(V) has a one-dimensional wild-invariant part then the degree is
    a power of p; returns whether that implication holds for chi.

    Requires the wild subgroup to be a p-group and chi irreducible.
    """
    if not is_prime(p):
        raise FilteredError(f"p = {p} is not prime")
    wild = chain.wild_subgroup
    if wild is None or not is_p_group(wild, p):
        raise FilteredError("the wild subgroup must be a p-group")
    if inner_product_int(chi, chi) != 1:
        raise FilteredError("character must be irreducible")
    if invariant_dimension(chi * chi.dual(), wild) != 1:
        return True
    deg = int(chi.degree)
    while deg % p == 0:
        deg //= p
    return deg == 1


def slope_zero_existence_check(chain: BreakChain, table: CharacterTable) -> bool:
    """If every irreducible has an integral polygon, none has a non-zero
    integer slope, and some irreducible is non-trivial, then some non-trivial
    irreducible must have slope zero; returns whether that implication holds."""
    if table.group is not chain.group:
        raise FilteredError("table must belong to the chain's group")
    if chain.group.order == 1:
        raise FilteredError("the group must be non-trivial")
    slopes = []
    for chi in table.irreducibles:
        lam = irreducible_slope(chain, chi)
        dim = int(chi.degree)
        integral = (lam * dim).denominator == 1
        slopes.append((chi, lam, integral))
    all_integral = all(s[2] for s in slopes)
    no_positive_integer_slope = all(
        not (lam > 0 and lam.denominator == 1) for _, lam, _ in slopes
    )
    exists_nontrivial = len(slopes) > 1
    hypothesis = all_integral and no_positive_integer_slope and exists_nontrivial
    if not hypothesis:
        return True
    return any(
        lam == 0 and chi != trivial_character(chain.group)
        for chi, lam, _ in slopes
    )
