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
An invariant dimension sums the view over the class counts of H itself
(`Subgroup.class_counts`), which need no group product, and an invariant
character over those of each coset gH (`Subgroup.coset_class_counts`), at
most |G| products on the first read; neither makes a product after that.
Slopes are built in the chain's order 0 < b_1 < ... < b_k, so the graded
pairs need no merge or sort.
The tensor and disjointness checks run on views alone and build no
`Cyclotomic`.  `tensor_bound_check` reads the slopes of chi * psi from the
product of the two views, one polynomial product and one reduction mod Phi_n
per class, when they share the conductor n (as two irreducibles of one table
do), and from the values of chi * psi otherwise.  `graded_pieces_disjoint`
forms each graded piece as a difference of invariant views at a common
denominator and decomposes it over the table from its view.  The pieces sum
to chi, so chi itself is decomposed only when a non-zero piece was left out.
The Swan conductor is the height of the resulting Newton polygon.  Lower
chains (integer-indexed ramification data) convert to break chains through
the Herbrand transition function phi(u) = integral of dt / [G_0 : G_t].

Break chains are arbitrary: integrality of Newton polygons is a predicate to
check, never an enforced invariant, so counterexample chains are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Cyclotomic, _poly_mul, is_prime, reduce_mod_cyclotomic
from .groups import FiniteGroup, Subgroup
from .newton import (NewtonPolygon, SlopeMultiset, polygon_from_slopes,
                     tensor_slope_bound)
from .reptheory import CharacterTable, ClassFunction, trivial_character


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


def _summed_rows(rows, counts) -> list[int]:
    """The sum of m * rows[k] over the (class k, count m) pairs."""
    total = [0] * len(rows[0])
    for k, m in counts:
        for i, x in enumerate(rows[k]):
            if x:
                total[i] += m * x
    return total


def _invariant_dimension(view, H: Subgroup) -> int:
    """dim V^H from an integer view (n, D, rows) of the character of V: the
    sum of the rows over the class counts of H (`Subgroup.class_counts`),
    over D |H|."""
    _, D, rows = view
    total, *rest = _summed_rows(rows, H.class_counts)
    dim, r = divmod(total, D * H.order)
    if r or dim < 0 or any(rest):
        raise FilteredError(
            f"not a character: invariant dimension under a subgroup of order "
            f"{H.order} is not a non-negative integer")
    return dim


def invariant_dimension(chi: ClassFunction, H: Subgroup) -> int:
    """dim of the H-fixed subspace: the average of chi over H, summed on the
    integer view of chi."""
    if H.parent is not chi.group:
        raise FilteredError("subgroup must live in the character's group")
    return _invariant_dimension(chi.int_view, H)


_ZERO = Fraction(0)


def _graded(chain: BreakChain, parts: list) -> list[tuple[Fraction, object]]:
    """The graded levels from the invariants `parts` under H_1, ..., H_k and
    the trivial group: (0, parts[0]), then (b_i, parts[i+1] - parts[i])."""
    return [(_ZERO, parts[0])] + [
        (b, parts[i + 1] - parts[i]) for i, b in enumerate(chain.breaks)]


def _slopes(chain: BreakChain, view, deg: int) -> SlopeMultiset:
    """The slope multiset of a character of degree deg with integer view
    `view`, from its invariant dimensions under H_1, ..., H_k."""
    dims = [_invariant_dimension(view, H) for H in chain.subgroups]
    pairs = _graded(chain, dims + [deg])
    # pairs[0] is an invariant dimension, or the degree that SlopeMultiset checks
    if any(mult < 0 for _, mult in pairs[1:]):
        raise FilteredError("invariant dimensions must increase down the chain")
    ms = SlopeMultiset(tuple((s, m) for s, m in pairs if m))
    if ms.total_dimension != deg:
        raise AssertionError("graded multiplicities must sum to the degree")
    return ms


def slope_decomposition(chain: BreakChain, chi: ClassFunction) -> SlopeMultiset:
    """Slopes of a character under the chain, with graded multiplicities."""
    if chi.group is not chain.group:
        raise FilteredError("character must live on the chain's group")
    deg = chi.degree
    if deg.denominator != 1:
        raise FilteredError("input must be a character")
    return _slopes(chain, chi.int_view, int(deg))


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


def _invariant_rows(chi: ClassFunction, H: Subgroup) -> list[list[int]]:
    """Per class representative g, the rows of chi's view (n, D, rows) summed
    over the class counts of the coset gH (`Subgroup.coset_class_counts`):
    D |H| times the H-invariant character of chi, over the power basis of
    Q(zeta_n).  Only the first call on a subgroup makes group products, at
    most |G| of them."""
    if H.parent is not chi.group:
        raise FilteredError("subgroup must live in the character's group")
    if not H.is_normal():
        raise FilteredError("subgroup must be normal in the character's group")
    rows = chi.int_view[2]
    return [_summed_rows(rows, counts) for counts in H.coset_class_counts]


def invariant_character(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Character of the H-fixed subspace of a normal subgroup H:
    g -> (1/|H|) sum over h of chi(gh), from `_invariant_rows`."""
    rows = _invariant_rows(chi, H)
    n, D, _ = chi.int_view
    return ClassFunction(chi.group, tuple(
        Cyclotomic(n, row, D * H.order, _reduced=True) for row in rows))


def graded_pieces_disjoint(chain: BreakChain, chi: ClassFunction,
                           table: CharacterTable) -> bool:
    """Distinct graded pieces share no irreducible constituent and every
    constituent of the character sits in exactly one piece (equivalently,
    each of its irreducible constituents carries a single slope).

    The pieces are the differences of the invariant characters under H_1,
    ..., H_k and the trivial group, formed and decomposed as integer views
    at the conductor n of chi's view; a piece whose degree truncates to 0 is
    left out, and chi is decomposed only when such a piece is not zero."""
    if table.group is not chain.group:
        raise FilteredError("table must belong to the chain's group")
    if not chain.subgroups:
        # the one piece is chi, kept when its degree truncates to non-zero
        kept = int(chi.degree)
        mults = table.decompose(chi)
        return all(m >= 0 for m in mults) if kept else not any(mults)
    parts = [_invariant_rows(chi, H) for H in chain.subgroups]
    n, D, rows = chi.int_view
    parts.append(rows)
    orders = [H.order for H in chain.subgroups] + [1]
    # piece i is parts[i+1] / (D |H_(i+1)|) - parts[i] / (D |H_i|), over D |H_i|
    pieces = [(D * orders[0], parts[0])] + [
        (D * big, [[x * (big // small) - y for x, y in zip(a, b)]
                   for a, b in zip(upper, lower)])
        for big, small, lower, upper in zip(orders, orders[1:], parts, parts[1:])]
    if any(any(piece[0][1:]) for _, piece in pieces):
        # an irrational degree: the degrees as values, so that the first
        # irrational one raises as the value route raised
        degrees = [Cyclotomic(n, part[0], D * order, _reduced=True)
                   for part, order in zip(parts[:-1], orders)] + [chi.values[0]]
        for _, degree in _graded(chain, degrees):
            degree.rational_value()
    supports = []
    dropped = False  # a non-zero piece was left out
    for den, piece in pieces:
        if abs(piece[0][0]) < den:  # the degree truncates to 0
            dropped = dropped or any(map(any, piece))
            continue
        mults = table._multiplicities((n, den, piece))
        if any(m < 0 for m in mults):
            return False
        supports.append({i for i, m in enumerate(mults) if m})
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    if not dropped:
        # the kept pieces sum to chi, so its multiplicities are the sums of
        # theirs, non-negative integers with disjoint supports
        return True
    total = table._multiplicities(chi.int_view)
    covered = set().union(*supports) if supports else set()
    return covered == {i for i, m in enumerate(total) if m}


def irreducible_slope(chain: BreakChain, chi: ClassFunction) -> Fraction:
    """The single slope of an irreducible character under the chain."""
    ms = slope_decomposition(chain, chi)
    if len(ms.entries) != 1:
        raise FilteredError("character does not have a single slope")
    return ms.entries[0][0]


def _product_slopes(chain: BreakChain, chi: ClassFunction,
                    psi: ClassFunction) -> SlopeMultiset:
    """slope_decomposition(chain, chi * psi) for chi and psi that have passed
    slope_decomposition.  When their views share one conductor n (two
    irreducibles of a table do, n = exponent(G)) it is read from the view of
    the product at the denominator D_chi D_psi, one product and one
    reduction mod Phi_n a class; else from chi * psi, which refuses what has
    no view."""
    if chi.int_view[0] == psi.int_view[0]:
        n, D_chi, chi_rows = chi.int_view
        _, D_psi, psi_rows = psi.int_view
        view = (n, D_chi * D_psi, [reduce_mod_cyclotomic(_poly_mul(a, b), n)
                                   for a, b in zip(chi_rows, psi_rows)])
        return _slopes(chain, view, int(chi.degree) * int(psi.degree))
    return slope_decomposition(chain, chi * psi)


def tensor_bound_check(chain: BreakChain, chi: ClassFunction,
                       psi: ClassFunction) -> bool:
    """Check the product's slopes against the tensor constraints of the factors.

    The exact part must appear with at least its multiplicity at each slope;
    the remaining mass must fit under the bounded part (mass at slope s needs
    a bound >= s), a greedy matching condition on the ordered slopes.
    """
    dec_chi = slope_decomposition(chain, chi)
    dec_psi = slope_decomposition(chain, psi)
    dec_prod = _product_slopes(chain, chi, psi)
    exact, bounded = tensor_slope_bound(dec_chi, dec_psi)
    remaining: dict[Fraction, int] = {s: m for s, m in dec_prod.entries}
    for s, m in exact.entries:
        if remaining.get(s, 0) < m:
            return False
        remaining[s] -= m
    # Hall condition on a totally ordered set: for every threshold, the mass
    # at or above it must be coverable by bounds at or above it, checked in
    # one sweep down the slopes
    bound_at = dict(bounded)
    need = have = 0
    for t in sorted(remaining.keys() | bound_at.keys(), reverse=True):
        need += remaining.get(t, 0)
        have += bound_at.get(t, 0)
        if need > have:
            return False
    return need == have


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
    # <chi, chi> = dim End(V)^G, the invariants of V (x) V* under all of G
    end = chi * chi.dual()
    if invariant_dimension(end, chi.group.full_subgroup()) != 1:
        raise FilteredError("character must be irreducible")
    if invariant_dimension(end, wild) != 1:
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
