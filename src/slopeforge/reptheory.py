"""Characters of finite groups over exact cyclotomic scalars.

Class functions are value vectors indexed by the conjugacy classes of their
group.  Complete character tables take one of two routes, chosen by the
classes alone.  A group whose classes are all singletons is abelian, and its
irreducibles are its homomorphisms to the e-th roots of unity, e =
exponent(G): they are extended along the group's generators, one coset of
the subgroup built so far at a time, with |G| - 1 products in all.  Every
other group goes through the Dixon-Schneider modular method: the class-sum
matrices, stored as sparse rows, are simultaneously diagonalized over a
prime field F_ell with ell = 1 mod exponent(G) (in `modp`, on lists of
Python ints).  Each class matrix is built on demand, in class order, and
only until every common eigenspace is a line, so a table often reads a few
of them.  The eigenvalues on a common eigenspace are the roots of its
characteristic polynomial, read by evaluating it on all of F_ell, so a table
build uses no randomness.  Degrees and values are read off mod ell, and the
values are lifted to exact cyclotomic numbers through the discrete Fourier
coefficients of the group's power maps, once per row of
`FiniteGroup.power_maps`, one per Galois orbit of classes: the class of g^a
with a prime to ord(g) gets the coefficients at g permuted, since chi(g^a) =
sigma_a(chi(g)).  The lifted multiplicity vectors are reduced mod Phi_m
over Z, and each value is made a `Cyclotomic` once.  Both routes write
zeta_e^a at an element of order m as the same `Cyclotomic` of conductor m,
sort the irreducibles the same way and pass the same checks, the modular
orthogonality relations among them, so a table does not show its route.
Restriction and induction go through the class fusion of a subgroup into its
parent (`Subgroup.class_fusion`), never through the elements of the parent.
Matrix representations over cyclotomics exist as oracles for induction and
tensor induction.

Conjugation of character values is realized by evaluating at inverse
elements, so no complex-conjugation operation on scalars is needed.

Each class function has a cached integer view: one conductor n, one common
denominator D and, per class, the integer coefficients of D times its value
over the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1).  That basis is an
integral basis of Z[zeta_n], so sums and products of views stay exact on
Python ints.  A decomposition over a character table multiplies views at
the conductor n of the decomposed function's view, reduces once mod Phi_n
and accepts a multiplicity only if the result is a rational integer, as an
inner product of characters is.

Views are read where a value is only read: decompositions, and the
invariant dimensions, slope decompositions, tensor bounds and graded pieces
of `filtered`, which decompose views with no class function around them.
Values that are emitted or compared keep the value route: the arithmetic
of `ClassFunction`, `induce`, `tensor_induce` and `mackey_check` builds
`Cyclotomic` values, since a value rebuilt from a view at conductor n would
carry n as its conductor (zeta_3 written at 6 instead of 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, isqrt, lcm
from operator import mul

from .exactnum import Cyclotomic, is_prime, lift_coeffs, reduce_mod_cyclotomic
from .groups import (CosetAction, FiniteGroup, Subgroup,
                     extend_from_generators, galois_orbit)
from . import modp

DEFAULT_TABLE_BOUND = 2000
MATRIX_GROUP_BOUND = 100
MATRIX_DIM_BOUND = 8


class RepTheoryError(ValueError):
    pass


def conductor_bound(G: FiniteGroup) -> int:
    """2|G|, the bound on the conductor of a class function of G: every
    character value of G lies in Q(zeta_n) with n dividing lcm(2, exponent(G))."""
    return 2 * G.order


@dataclass(frozen=True)
class ClassFunction:
    """A cyclotomic-valued function on the conjugacy classes of a group."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.values) != len(self.group.conjugacy_classes):
            raise RepTheoryError("one value per conjugacy class required")

    @cached_property
    def degree(self) -> Fraction:
        """Value at the identity class; an irrational one raises at each read."""
        return self.values[0].rational_value()

    def value_at(self, element: int) -> Cyclotomic:
        return self.values[self.group.class_of[element]]

    @cached_property
    def int_view(self) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
        """(n, D, rows): rows[k] holds the integer coefficients of D chi(C_k)
        over the power basis of Q(zeta_n), n the lcm of exponent(G) and the
        values' conductors, D > 0 the common denominator of the values.

        Past `conductor_bound(G)` each value is moved to its least conductor
        first, and an n still above it is refused: Phi_n costs time quadratic
        in n, coprime conductors on a few classes multiply, and a character
        of G needs no n beyond lcm(2, exponent(G))."""
        values, e = self.values, self.group.exponent
        n = reduce(lcm, (v.conductor for v in values), e)
        bound = conductor_bound(self.group)
        if n > bound:
            values = self.at_least_conductors().values
            n = reduce(lcm, (v.conductor for v in values), e)
        if n > bound:
            raise RepTheoryError(
                f"the values' least conductors and the exponent have an lcm "
                f"above 2|G| = {bound}")
        D = lcm(*(v.den for v in values))
        rows = tuple(tuple(lift_coeffs([x * (D // v.den) for x in v.nums],
                                       v.conductor, n))
                     for v in values)
        return n, D, rows

    def at_least_conductors(self) -> ClassFunction:
        """The same function with each value at its least conductor."""
        return ClassFunction(self.group,
                             tuple(v.at_least_conductor() for v in self.values))

    def dual(self) -> ClassFunction:
        """g -> value at g^-1."""
        inv = self.group.inverse_class
        return ClassFunction(self.group,
                             tuple(self.values[inv[c]] for c in range(len(self.values))))

    def _check_same_group(self, other):
        if self.group is not other.group:
            raise RepTheoryError("class functions live on different groups")

    def __add__(self, other: ClassFunction) -> ClassFunction:
        self._check_same_group(other)
        return ClassFunction(self.group,
                             tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: ClassFunction) -> ClassFunction:
        self._check_same_group(other)
        return ClassFunction(self.group,
                             tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check_same_group(other)
            return ClassFunction(self.group,
                                 tuple(a * b for a, b in zip(self.values, other.values)))
        scalar = Cyclotomic.coerce(other)
        return ClassFunction(self.group, tuple(scalar * v for v in self.values))

    __rmul__ = __mul__

    def power(self, n: int) -> ClassFunction:
        return ClassFunction(self.group, tuple(v ** n for v in self.values))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __hash__(self):
        return hash((id(self.group), len(self.values)))

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


def trivial_character(G: FiniteGroup) -> ClassFunction:
    one = Cyclotomic.rational(1)
    return ClassFunction(G, (one,) * len(G.conjugacy_classes))


def regular_character(G: FiniteGroup) -> ClassFunction:
    vals = [Cyclotomic.rational(0)] * len(G.conjugacy_classes)
    vals[0] = Cyclotomic.rational(G.order)
    return ClassFunction(G, tuple(vals))


def restrict(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Transport values along the class fusion of H into its parent."""
    if H.parent is not chi.group:
        raise RepTheoryError("subgroup does not live in the character's group")
    return ClassFunction(H.as_group, tuple(chi.values[k] for k in H.class_fusion))


def conjugate_character(chi: ClassFunction, H: Subgroup, gamma: int) -> ClassFunction:
    """The conjugate character h -> chi(gamma^-1 h gamma) on a normal subgroup."""
    G = H.parent
    if not H.is_normal():
        raise RepTheoryError("conjugation needs a normal subgroup")
    if chi.group is not H.as_group:
        raise RepTheoryError("character must live on the subgroup")
    Hg = H.as_group
    ginv = G.inv(gamma)
    vals = []
    for rep in Hg.class_representatives:
        h = Hg.elements[rep]
        vals.append(chi.value_at(Hg.index[G.mul(ginv, G.mul(h, gamma))]))
    return ClassFunction(Hg, tuple(vals))


def induce(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Frobenius induced character through the class fusion of H into G: the
    value on the class C_k is |G| / (|H| |C_k|) times the sum of |c| chi(c)
    over the classes c of H inside C_k."""
    G = H.parent
    Hg = H.as_group
    if chi.group is not Hg:
        raise RepTheoryError("character must live on the subgroup")
    sums = [Cyclotomic.rational(0)] * len(G.conjugacy_classes)
    for c, k in enumerate(H.class_fusion):
        sums[k] = sums[k] + len(Hg.conjugacy_classes[c]) * chi.values[c]
    return ClassFunction(G, tuple(
        total * Fraction(G.order, H.order * len(cls))
        for total, cls in zip(sums, G.conjugacy_classes)))


def tensor_induce(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Tensor-induced character via the cycle decomposition on G/H.

    The value at g is the product over the orbits O of g on the cosets
    gamma_i H of chi(gamma_i^-1 g^|O| gamma_i) for any coset representative
    gamma_i in O; the result does not depend on the transversal.  The degree
    is deg(chi)^[G:H].
    """
    G = H.parent
    Hg = H.as_group
    if chi.group is not Hg:
        raise RepTheoryError("character must live on the subgroup")
    action = CosetAction(H)
    n = len(action.transversal)
    vals = []
    for cls in G.conjugacy_classes:
        perm, cocycle = action.image(cls[0])
        value = Cyclotomic.rational(1)
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            # the cocycles along the cycle multiply to gamma_i^-1 g^|O| gamma_i
            inside = 0
            j = i
            while not seen[j]:
                seen[j] = True
                inside = G.mul(cocycle[j], inside)
                j = perm[j]
            value = value * chi.value_at(Hg.index[inside])
        vals.append(value)
    return ClassFunction(G, tuple(vals))


def mackey_check(V: ClassFunction, W: ClassFunction,
                 H: Subgroup) -> tuple[bool, dict]:
    """Ind(V) Ind(W) = sum over transversal of Ind(conj(V) W), H normal."""
    if not H.is_normal():
        raise RepTheoryError("the decomposition needs a normal subgroup")
    lhs = induce(V, H) * induce(W, H)
    rhs = None
    for gamma in CosetAction(H).transversal:
        term = induce(conjugate_character(V, H, gamma) * W, H)
        rhs = term if rhs is None else rhs + term
    ok = lhs == rhs
    witness = {
        "lhs": [str_of_cyclotomic(v) for v in lhs.values],
        "rhs": [str_of_cyclotomic(v) for v in rhs.values],
    }
    return ok, witness


def str_of_cyclotomic(v: Cyclotomic) -> str:
    coeffs = v.coefficient_strs()
    if v.is_rational:
        return coeffs[0]
    return "z%d:[%s]" % (v.conductor, ",".join(coeffs))


# -- character tables (abelian extension, Dixon-Schneider) --------------------


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    irreducibles: tuple[ClassFunction, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(int(chi.degree) for chi in self.irreducibles)

    def decompose(self, chi: ClassFunction) -> tuple[int, ...]:
        """Multiplicities of chi over the irreducibles (must be integers),
        read from chi's integer view."""
        chi._check_same_group(self.irreducibles[0])
        return self._multiplicities(chi.int_view)

    def _multiplicities(self, view) -> tuple[int, ...]:
        """The multiplicities of the class function of G with the integer
        view (n, D, rows), n a multiple of e = exponent(G).

        Each <chi, psi> is sum_k |C_k| chi(C_k^-1) psi(C_k) / |G| (k -> k^-1
        keeps |C_k|) on integer coefficient vectors at n: psi's view, at e,
        is lifted to n when n != e, and the sum is reduced once mod Phi_n.
        That is exact, since the power basis is an integral basis, and a
        result that is not a rational integer is refused."""
        G = self.group
        n, D, rows = view
        e = G.exponent
        sized = [[len(cls) * x for x in rows[k]]
                 for cls, k in zip(G.conjugacy_classes, G.inverse_class)]
        width = 2 * len(rows[0]) - 1
        mults = []
        for i, psi in enumerate(self.irreducibles):
            _, D_psi, psi_rows = psi.int_view
            if n != e:
                psi_rows = [lift_coeffs(row, e, n) for row in psi_rows]
            acc = [0] * width
            for a, b in zip(sized, psi_rows):
                for t, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b, t):
                            acc[j] += x * y
            total, *rest = reduce_mod_cyclotomic(acc, n)
            q, r = divmod(total, D * D_psi * G.order)
            if r or any(rest):
                raise RepTheoryError(f"not a character: the multiplicity of "
                                     f"irreducible {i} is not an integer")
            mults.append(q)
        return tuple(mults)


def _class_matrix(G: FiniteGroup, i: int) -> list[dict[int, int]]:
    """The class-sum matrix M_i, M_i[j][k] = #{x in C_i : x^-1 z_k in C_j},
    stored as sparse rows: row j maps k to its non-zero entry.  The x^-1 are
    the inverse class of C_i; it costs r |C_i| products, and is built only
    when the split reads it."""
    class_of = G.class_of
    rows = [{} for _ in G.conjugacy_classes]
    xs = G.conjugacy_classes[G.inverse_class[i]]
    for k, z in enumerate(G.class_representatives):
        for x_inv in xs:
            row = rows[class_of[G.mul(x_inv, z)]]
            row[k] = row.get(k, 0) + 1
    return rows


def _find_modulus(G: FiniteGroup) -> int:
    e = G.exponent
    ell = e + 1
    floor_bound = 2 * isqrt(G.order) + 1
    while True:
        if ell > floor_bound and is_prime(ell):
            return ell
        ell += e if e > 1 else 1


def _primitive_root_of_unity(ell: int, e: int) -> int:
    """The first g^((ell-1)/e), g = 2, 3, ..., of multiplicative order e."""
    for g in range(2, ell):
        w = pow(g, (ell - 1) // e, ell)
        x, order = w, 1
        while x != 1:
            x, order = (x * w) % ell, order + 1
        if order == e:
            return w
    raise AssertionError("no primitive root found")


def _split_eigenvectors(G: FiniteGroup, ell: int) -> list[list[int]]:
    """Common eigenvectors (one per character) of the commuting class
    matrices, taken in class order until every common eigenspace is a line."""
    r = len(G.conjugacy_classes)
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    spaces = [(identity, list(range(r)))]
    for idx in range(1, r):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        M = _class_matrix(G, idx)
        new_spaces = []
        for basis, pivots in spaces:
            d = len(basis)
            if d == 1:
                new_spaces.append((basis, pivots))
                continue
            action = []
            for vec in basis:
                img = [sum([c * vec[k] for k, c in row.items()]) % ell for row in M]
                action.append(modp.coords_in_rref_basis(img, basis, pivots, ell))
            # in row coordinates c the action is c -> c @ action
            cp = modp.charpoly(action, ell)
            for root in modp.roots(cp, ell):
                # the left kernel of action - root: the kernel of its transpose
                shifted = [[(action[b][a] - root * (a == b)) % ell for b in range(d)]
                           for a in range(d)]
                ker = modp.kernel_basis(shifted, ell)
                sub = [modp.combine(k, basis, ell) for k in ker]
                new_spaces.append(modp.rref(sub, ell))
        spaces = new_spaces
    if any(len(basis) != 1 for basis, _ in spaces):
        raise AssertionError("class matrices failed to split to common eigenvectors")
    return [basis[0] for basis, _ in spaces]


def character_table(G: FiniteGroup,
                    max_order: int = DEFAULT_TABLE_BOUND) -> CharacterTable:
    """Complete irreducible character table with exact cyclotomic values."""
    if G.order > max_order:
        raise RepTheoryError(
            f"group order {G.order} exceeds the table bound {max_order}"
        )
    if G._character_table is None:
        # the classes are all singletons exactly when G is abelian
        abelian = len(G.conjugacy_classes) == G.order
        G._character_table = (_abelian_table if abelian else _dixon_schneider)(G)
    return G._character_table


def _abelian_table(G: FiniteGroup) -> CharacterTable:
    """The homomorphisms G -> mu_e, e = exponent(G), each held as the
    exponents a of its values zeta_e^a and extended along G.generators.

    With K the subgroup built so far and m the least power of the next
    generator g that lies in K, each chi of K has the m extensions
    chi'(k g^t) = chi(k) + t u mod e, u = chi(g^m)/m + (e/m) j for j < m:
    chi(g^m) = m chi'(g) mod e, and m divides e, so m divides chi(g^m).
    The coset K g^t is built from K g^(t-1), one product per element but
    the identity, whose g^t the walk to g^m holds: |G| - 1 products."""
    e = G.exponent
    place = {0: 0}  # K, each element at its place in the exponent lists
    chars = [[0]]
    for g in G.generators:
        if g in place:
            continue
        walk = [0, g]
        while walk[-1] not in place:
            walk.append(G.mul(walk[-1], g))
        m = len(walk) - 1
        at_gm = place[walk[m]]
        coset = list(place)
        for t in range(1, m):
            coset = [walk[t]] + [G.mul(x, g) for x in coset[1:]]
            for x in coset:
                place[x] = len(place)
        chars = [[(a + t * u) % e for t in range(m) for a in chi]
                 for chi in chars for u in range(chi[at_gm] // m, e, e // m)]

    # class x is {x}; zeta_e^a at x of order m is the unit vector at a m/e
    # of length m, as the Dixon-Schneider lift writes it, and one Cyclotomic
    # per (m, position) is shared
    zetas = {m: [Cyclotomic.zeta(m, k) for k in range(m)]
             for m in set(G.element_orders)}
    columns = [(place[x], zetas[m], e // m) for x, m in enumerate(G.element_orders)]
    irreducibles = [ClassFunction(G, tuple(z[chi[p] // s] for p, z, s in columns))
                    for chi in chars]
    ell = _find_modulus(G)
    omega = _primitive_root_of_unity(ell, e)
    omega_powers = [pow(omega, a, ell) for a in range(e)]
    chars_mod = [[omega_powers[chi[p]] for p, _, _ in columns] for chi in chars]
    return _checked_table(G, irreducibles, chars_mod, ell)


def _dixon_schneider(G: FiniteGroup) -> CharacterTable:
    classes = G.conjugacy_classes
    r = len(classes)
    sizes = [len(c) for c in classes]
    inv_class = G.inverse_class
    e = G.exponent
    ell = _find_modulus(G)
    omega = _primitive_root_of_unity(ell, e)
    vectors = _split_eigenvectors(G, ell)

    order_mod = G.order % ell
    size_inv = [modp.inv_mod(s, ell) for s in sizes]
    chars_mod = []
    degrees = []
    for v in vectors:
        inv0 = modp.inv_mod(v[0], ell)
        v = [(x * inv0) % ell for x in v]
        s = 0
        for k in range(r):
            s = (s + v[k] * v[inv_class[k]] * size_inv[k]) % ell
        d_sq = (order_mod * modp.inv_mod(s, ell)) % ell
        d = next((x for x in range(1, isqrt(G.order) + 1)
                  if (x * x) % ell == d_sq), None)
        if d is None:
            raise AssertionError("degree lift failed")
        degrees.append(d)
        chars_mod.append([(d * v[k] * size_inv[k]) % ell for k in range(r)])
    if sum(d * d for d in degrees) != G.order:
        raise AssertionError("sum of squared degrees must equal the group order")

    # lift per row of G.power_maps, a Galois orbit of classes: the vector of
    # root-of-unity multiplicities at g is the inverse DFT of the power-map
    # values mod ell, and since chi(g^a) = sigma_a(chi(g)) for a prime to
    # m = ord(g), the class of g^a gets it permuted by u -> u * a^-1 mod m,
    # made a Cyclotomic at once.  The power-map values fix the multiplicities,
    # so irreducibles with the same values on a row share the largest
    # multiplicity, checked against each degree.  Those with the same value
    # at the orbit's first class share the orbit's Cyclotomics, its Galois
    # conjugates, even where their values at other powers g^t differ (the
    # degree at t = 0, say).  Both are memoised for this row only
    values = [[None] * r for _ in chars_mod]
    for row in G.power_maps:
        m = len(row)
        wm_inv = modp.inv_mod(pow(omega, e // m, ell), ell)
        m_inv = modp.inv_mod(m, ell)
        powers = [pow(wm_inv, t, ell) for t in range(m)]
        dft = [[powers[(u * t) % m] for t in range(m)] for u in range(m)]
        (c0, a0), *orbit = [(c, pow(a, -1, m)) for c, a in galois_orbit(row).items()]
        lifts, by_value = {}, {}
        for i, d in enumerate(degrees):
            pow_vals = tuple(chars_mod[i][c] for c in row)
            lift = lifts.get(pow_vals)
            if lift is None:
                col = [(m_inv * sum(map(mul, f, pow_vals))) % ell for f in dft]
                first = Cyclotomic(m, [col[(w * a0) % m] for w in range(m)])
                key = first.conductor, first.nums
                if key not in by_value:
                    by_value[key] = [(c0, first)] + [
                        (c, Cyclotomic(m, [col[(w * a_inv) % m] for w in range(m)]))
                        for c, a_inv in orbit]
                lift = lifts[pow_vals] = (max(col), by_value[key])
            top, lifted = lift
            if top > d:
                raise AssertionError("eigenvalue multiplicity lift out of range")
            for c, v in lifted:
                values[i][c] = v

    irreducibles = []
    for d, vals in zip(degrees, values):
        if vals[0] != Cyclotomic.rational(d):
            raise AssertionError("lifted degree mismatch")
        irreducibles.append(ClassFunction(G, tuple(vals)))
    return _checked_table(G, irreducibles, chars_mod, ell)


def _checked_table(G: FiniteGroup, irreducibles, chars_mod, ell) -> CharacterTable:
    """The table in a deterministic order, once its checks pass: trivial
    character first, then by degree and values; character values are
    algebraic integers, so every den is 1."""
    def sort_key(chi: ClassFunction):
        return (int(chi.degree),
                [(v.conductor, v.nums) for v in chi.values])

    triv = trivial_character(G)
    rest = sorted((c for c in irreducibles if c != triv), key=sort_key)
    table = CharacterTable(G, (triv,) + tuple(rest))
    if len(table.irreducibles) != len(G.conjugacy_classes):
        raise AssertionError("table must have one irreducible per class")
    _verify_table_degrees(table)
    _verify_orthogonality_mod(table, chars_mod, ell)
    return table


def _verify_table_degrees(table: CharacterTable):
    G = table.group
    total = 0
    for d in table.degrees:
        if d < 1 or G.order % d:
            raise AssertionError("irreducible degrees must divide the group order")
        total += d * d
    if total != G.order:
        raise AssertionError("sum of squared degrees must equal the group order")


def _verify_orthogonality_mod(table, chars_mod, ell):
    """sum_k |C_k| chi_i(C_k) chi_j(C_k^-1) = |G| [i = j] mod ell, for i <= j:
    k -> k^-1 turns the sum for (i, j) into the one for (j, i), as
    |C_k^-1| = |C_k|, so these are all the relations."""
    G = table.group
    sizes = [len(c) for c in G.conjugacy_classes]
    inv_class = G.inverse_class
    weighted = [[n * row[c] for n, c in zip(sizes, inv_class)] for row in chars_mod]
    for i, row in enumerate(chars_mod):
        for j in range(i, len(chars_mod)):
            expected = G.order % ell if i == j else 0
            if sum(map(mul, row, weighted[j])) % ell != expected:
                raise AssertionError("modular orthogonality check failed")


def irreducible_dims_gcd(G: FiniteGroup,
                         max_order: int = DEFAULT_TABLE_BOUND) -> int:
    """gcd of the degrees of the non-trivial irreducibles."""
    if G.order == 1:
        raise RepTheoryError("the trivial group has no non-trivial irreducible")
    return reduce(gcd, character_table(G, max_order=max_order).degrees[1:])


def tind_summand_check(chi: ClassFunction, H: Subgroup) -> bool:
    """(Ind chi)^(tensor n) minus TensorInd chi decomposes non-negatively."""
    G = H.parent
    n = G.order // H.order
    table = character_table(G)
    big = induce(chi, H).power(n)
    diff = big - tensor_induce(chi, H)
    try:
        mults = table.decompose(diff)
    except ValueError:
        return False
    return all(m >= 0 for m in mults)


# -- explicit matrix representations (oracles) ---------------------------------


Matrix = tuple[tuple[Cyclotomic, ...], ...]


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = Cyclotomic.rational(0)
            for t in range(k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_identity(n: int) -> Matrix:
    one, zero = Cyclotomic.rational(1), Cyclotomic.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _mat_trace(A: Matrix) -> Cyclotomic:
    acc = Cyclotomic.rational(0)
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


@dataclass(frozen=True)
class MatrixRep:
    """Invertible cyclotomic matrices, one per group element, multiplicative."""

    group: FiniteGroup
    dimension: int
    matrices: tuple[Matrix, ...]

    def character(self) -> ClassFunction:
        vals = tuple(_mat_trace(self.matrices[rep])
                     for rep in self.group.class_representatives)
        return ClassFunction(self.group, vals)


def rep_from_generator_images(G: FiniteGroup, generator_indices,
                              images) -> MatrixRep:
    """Extend generator images multiplicatively; rejects inconsistent images."""
    if G.order > MATRIX_GROUP_BOUND:
        raise RepTheoryError(f"matrix representations bounded to |G| <= {MATRIX_GROUP_BOUND}")
    images = [tuple(tuple(Cyclotomic.coerce(x) for x in row) for row in m)
              for m in images]
    dims = {len(m) for m in images} | {len(row) for m in images for row in m}
    if len(images) != len(list(generator_indices)):
        raise RepTheoryError("need one image per generator")
    if not images:
        dim = 1
    else:
        if len(dims) != 1:
            raise RepTheoryError("generator images must be square of equal size")
        dim = dims.pop()
    if dim > MATRIX_DIM_BOUND:
        raise RepTheoryError(f"matrix representations bounded to dim <= {MATRIX_DIM_BOUND}")
    mats = extend_from_generators(G.right_rows(generator_indices), images,
                                  _mat_mul, _mat_identity(dim))
    if mats is None:
        raise RepTheoryError("generator images are not multiplicative")
    # mats is one long when there are no generators
    if len(mats) != G.order or None in mats:
        raise RepTheoryError("generators do not generate the group")
    return MatrixRep(G, dim, tuple(mats))


def induced_matrix_rep(rep: MatrixRep, H: Subgroup) -> MatrixRep:
    """Block-permutation matrices of the induced representation on V^n."""
    G = H.parent
    Hg = H.as_group
    if rep.group is not Hg:
        raise RepTheoryError("representation must live on the subgroup")
    action = CosetAction(H)
    n = len(action.transversal)
    d = rep.dimension
    if n * d > MATRIX_DIM_BOUND:
        raise RepTheoryError("induced dimension exceeds the matrix bound")
    zero = Cyclotomic.rational(0)
    mats = []
    for g in range(G.order):
        perm, cocycle = action.image(g)
        big = [[zero] * (n * d) for _ in range(n * d)]
        for j in range(n):
            M = rep.matrices[Hg.index[cocycle[j]]]
            for a in range(d):
                for b in range(d):
                    big[perm[j] * d + a][j * d + b] = M[a][b]
        mats.append(tuple(tuple(row) for row in big))
    return MatrixRep(G, n * d, tuple(mats))


def tensor_induced_matrix_rep(rep: MatrixRep, H: Subgroup) -> MatrixRep:
    """Explicit matrices of the tensor-induced representation on V^(tensor n)."""
    G = H.parent
    Hg = H.as_group
    if rep.group is not Hg:
        raise RepTheoryError("representation must live on the subgroup")
    action = CosetAction(H)
    n = len(action.transversal)
    d = rep.dimension
    if d**n > MATRIX_DIM_BOUND:
        raise RepTheoryError("tensor-induced dimension exceeds the matrix bound")
    from itertools import product as iter_product

    indices = list(iter_product(range(d), repeat=n))
    mats = []
    for g in range(G.order):
        perm, cocycle = action.image(g)
        inv_perm = [0] * n
        for i, t in enumerate(perm):
            inv_perm[t] = i
        slot_mats = [rep.matrices[Hg.index[t]] for t in cocycle]
        big = []
        for I in indices:
            row = []
            for J in indices:
                acc = Cyclotomic.rational(1)
                # slot i of the output receives slot inv_perm(i) of the input
                for i in range(n):
                    src = inv_perm[i]
                    acc = acc * slot_mats[src][I[i]][J[src]]
                    if not acc:
                        break
                row.append(acc)
            big.append(tuple(row))
        mats.append(tuple(big))
    return MatrixRep(G, d**n, tuple(mats))
