"""Finite groups as explicit multiplication structures.

Groups are stored as an ordered element list (identity first) plus a
composition rule on the raw element values; everything else (inverses,
conjugacy classes, one power map per Galois orbit of classes and the element
orders read off it, subgroup closures) is derived and cached on the group
object.  A subgroup likewise caches what it derives (its normality, itself as
a standalone group, its class fusion and the class counts of its cosets), so
that data is freed with the subgroup.  Raw values are hashable, so closures
are dict-driven, and groups up to the configured order bound (default 10000)
can be enumerated in full.  Wreath products compose lazily and never require
enumerating the ambient product, only the subgroups actually built inside it.

The package's closure and action routines are these four and no others:
`_extend_closed` grows a subgroup coset by coset (group and subgroup
generation and validation, normal closures, lattice joins, wreath tops);
`orbit` closes a set under any other action (conjugacy classes, joins of
normal subgroups, a Cayley table not yet known to be a group, the roots of
`weyl` under simple reflections); `CosetAction` is left translation on the
cosets G/H and the one place that picks their representatives, the least
element of each coset (the wreath embedding, tensor induction, induced
matrices, the Mackey and restriction formulas); and
`extend_from_generators` extends a map given on generators along their
right-multiplication rows (`FiniteGroup.right_rows`, the Cayley graph):
homomorphisms, candidate automorphisms, and the left multiplications that
make up the multiplication table and, composed with the rows, the
conjugations.  Every group and subgroup keeps the generators of the closure
that built or validated it, and readers use those, never a recount.
Subgroups built by these closures are trusted (`Subgroup._from_closure`); a
subgroup given from outside is validated by closing it from its own
elements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm

from .exactnum import is_prime

DEFAULT_MAX_ORDER = 10000
# A wreath product over a base of at most this order composes through the
# base's multiplication table (at most 256 x 256 small ints, about 0.5 MB).
BASE_TABLE_MAX_ORDER = 256
# automorphism_count refuses a search over more tuples of generator images.
AUTOMORPHISM_SEARCH_BOUND = 2_000_000


class GroupError(ValueError):
    pass


class GoursatDichotomyError(GroupError):
    """The full-or-twisted-diagonal dichotomy fails for the given subgroup.

    Only possible for abelian bases with more than two coordinates, where
    e.g. the sum-zero hyperplane of (C_q)^3 is shift-stable and surjects onto
    the first factor without being full or a graph.
    """


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Function composition (a after b): (a*b)(i) = a(b(i))."""
    return tuple(a[x] for x in b)


def orbit(seeds, gens, act) -> set:
    """The smallest superset of `seeds` closed under x -> act(x, g), g in gens."""
    frontier = list(seeds)  # in the given order, so the search is reproducible
    members = set(frontier)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def _extend_closed(closed, gens, act, identity, bound=None, stop=None) -> set:
    """closed . <gens> for a set `closed` that is a group under act (right
    multiplication), as a union of right cosets closed . r (Dimino's step).

    The result is a group when `closed` lies in <gens> or gens normalize it.
    A coset is added whole for each r . g outside the union, with r running
    over the coset representatives found so far; GroupError is raised before
    a coset would take the union past `bound` elements, and the union is
    returned unfinished as soon as it has more than `stop` elements.
    """
    coset = list(closed)
    members = set(coset)
    reps = [identity]
    for r in reps:  # reps grows while it is walked
        for g in gens:
            y = act(r, g)
            if y not in members:
                if bound is not None and len(members) + len(coset) > bound:
                    raise GroupError(f"closure exceeds order bound {bound}")
                members.update([act(h, y) for h in coset])
                if stop is not None and len(members) > stop:
                    return members
                reps.append(y)
    return members


def _greedy_generators(elements, identity, act, bound=None) -> tuple[list, set]:
    """(gens, reached): gens are the elements, in the given order, not yet
    generated by the ones before them, and reached is what gens generate."""
    gens: list = []
    reached = {identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = _extend_closed(reached, gens, act, identity, bound)
    return gens, reached


def extend_from_generators(rows, images, mul, one) -> dict | None:
    """The map f on the elements reached from the identity 0 with f(0) = one
    and f(row[x]) = mul(f(x), image) for each right-multiplication row of a
    generator (`FiniteGroup.right_rows`) and its image, or None at the first
    element given two different values (the images are then not
    multiplicative)."""
    f = {0: one}
    frontier = [0]
    pairs = list(zip(rows, images))
    while frontier:
        x = frontier.pop()
        fx = f[x]
        for row, img in pairs:
            y = row[x]
            fy = mul(fx, img)
            if y in f:
                if f[y] != fy:
                    return None
            else:
                f[y] = fy
                frontier.append(y)
    return f


def _row_lookup(x, row):
    """x moved by a permutation given as its list of images."""
    return row[x]


def galois_orbit(row) -> dict[int, int]:
    """{row[a]: a} over the a prime to m = len(row), for the power map row
    of a class of g: the classes of the generators g^a of <g>, which share
    its order and normal closure, and where chi(g^a) = sigma_a(chi(g))."""
    m = len(row)
    return {row[a]: a for a in range(m) if gcd(a, m) == 1}


class FiniteGroup:
    """A finite group over an ordered list of raw element values.

    compose operates on raw values; public mul/inv operate on indices.  The
    group is its product: inverses are read off the cyclic subgroups, and
    inverse classes off the power maps.  The identity always has index 0 and
    elements are kept in a deterministic order, so derived data (classes,
    subgroups) is reproducible.  `generators` (raw values) is required: each
    constructor passes the generating set that its closure or validation
    found, or that the construction gives.
    """

    def __init__(self, elements, compose, identity, generators, name="group"):
        elements = list(elements)
        if identity not in elements:
            raise GroupError("identity missing from element list")
        rest = sorted(e for e in elements if e != identity)
        self.elements = [identity] + rest
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise GroupError("duplicate elements")
        self._compose = compose
        self.name = name
        # set by reptheory.character_table, and released with the group
        self._character_table = None
        self.generators = sorted(self.index[g] for g in generators
                                 if g != identity)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.index[self._compose(self.elements[i], self.elements[j])]

    def right_rows(self, gens) -> list[list[int]]:
        """rows[k][x] = mul(x, gens[k]): the Cayley graph's edges for each
        generator, built by |G| products each and not cached."""
        mul = self.mul
        return [[mul(x, g) for x in range(self.order)] for g in gens]

    def _left_row(self, rows, a) -> list[int]:
        """x -> mul(a, x): it commutes with the right-multiplication rows of
        the generators, so it extends from 0 -> a along them by lookups."""
        left = extend_from_generators(rows, rows, _row_lookup, a)
        return [left[x] for x in range(self.order)]

    @cached_property
    def _mul_rows(self) -> list[list[int]]:
        """The multiplication table, _mul_rows[i][j] = mul(i, j), built on
        first use as the left multiplication by each i (|G| |gens| products
        and lookups for the rest); only wreath products over a small base
        read it."""
        rows = self.right_rows(self.generators)
        return [self._left_row(rows, a) for a in range(self.order)]

    @cached_property
    def _inv_list(self) -> list[int]:
        """inv[g^k] = g^(m-k) on each cyclic subgroup <g> of order m, walked
        from the first element whose inverse is not yet known: the phi(m)
        generators of <g> are all new then, so a walk costs at most
        m / phi(m) products per element it settles."""
        inv = [0] + [None] * (self.order - 1)
        for g in range(1, self.order):
            if inv[g] is None:
                powers = [0, g]
                while powers[-1] != 0:
                    powers.append(self.mul(powers[-1], g))
                m = len(powers) - 1
                for k in range(1, m):
                    inv[powers[k]] = powers[m - k]
        return inv

    def inv(self, i: int) -> int:
        return self._inv_list[i]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(i), -k)
        out = 0
        base = i
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def element_order(self, i: int) -> int:
        n = 1
        x = i
        while x != 0:
            x = self.mul(x, i)
            n += 1
        return n

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element: the classes of a power map's Galois
        orbit have the length of its row as order."""
        orders = [0] * self.order
        for row in self.power_maps:
            for c in galois_orbit(row):
                for x in self.conjugacy_classes[c]:
                    orders[x] = len(row)
        return tuple(orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*map(len, self.power_maps))

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.mul(a, b) == self.mul(b, a) for a in gens for b in gens
        )

    # -- conjugacy structure --

    @cached_property
    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Classes as sorted index tuples, ordered by minimal element.

        The identity class {0} always comes first.
        """
        rows = self.right_rows(self.generators)
        # g^-1 x g is the row of g read at g^-1 x, the left row of g^-1
        conjugations = []
        for row in rows:
            left = self._left_row(rows, row.index(0))
            conjugations.append([row[y] for y in left])
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if not seen[start]:
                cls = tuple(sorted(orbit([start], conjugations, _row_lookup)))
                for x in cls:
                    seen[x] = True
                classes.append(cls)
        return classes

    @cached_property
    def class_of(self) -> list[int]:
        out = [0] * self.order
        for ci, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                out[x] = ci
        return out

    @property
    def class_representatives(self) -> list[int]:
        return [cls[0] for cls in self.conjugacy_classes]

    @cached_property
    def power_maps(self) -> tuple[tuple[int, ...], ...]:
        """One power map per Galois orbit of classes, taken at the orbit's
        first class in class order: for its representative g of order m,
        row[t] is the class of g^t, t = 0..m-1.  The orbit is the classes
        row[a] with a prime to m (`galois_orbit`); the identity's row is
        (0,) and comes first."""
        covered = set()
        rows = []
        for ci, g in enumerate(self.class_representatives):
            if ci not in covered:
                row, x = [0], g
                while x != 0:
                    row.append(self.class_of[x])
                    x = self.mul(x, g)
                rows.append(tuple(row))
                covered.update(galois_orbit(row))
        return tuple(rows)

    @cached_property
    def inverse_class(self) -> list[int]:
        """The class of g^-1 for each class: the class row[a] of g^a has
        inverse class row[-a mod m] on the power map row of g."""
        out = [0] * len(self.conjugacy_classes)
        for row in self.power_maps:
            for c, a in galois_orbit(row).items():
                out[c] = row[-a % len(row)]
        return out

    # -- common subgroups --

    def subgroup(self, elements) -> Subgroup:
        return Subgroup(self, tuple(sorted(set(elements))))

    def trivial_subgroup(self) -> Subgroup:
        if not hasattr(self, "_trivial_subgroup"):
            self._trivial_subgroup = Subgroup._from_closure(self, (0,), ())
        return self._trivial_subgroup

    def full_subgroup(self) -> Subgroup:
        if not hasattr(self, "_full_subgroup"):
            self._full_subgroup = Subgroup._from_closure(
                self, tuple(range(self.order)), tuple(self.generators)
            )
        return self._full_subgroup

    @cached_property
    def center(self) -> tuple[int, ...]:
        """The elements alone in their conjugacy class."""
        return tuple(cls[0] for cls in self.conjugacy_classes if len(cls) == 1)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def subgroup_closure(G: FiniteGroup, generators) -> tuple[int, ...]:
    """Sorted index tuple of the subgroup generated by the given indices."""
    return tuple(sorted(_greedy_generators(generators, 0, G.mul)[1]))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]
    generators: tuple[int, ...] = field(default=(), compare=False)
    element_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        els, G = self.elements, self.parent
        if not els or els[0] != 0:
            raise GroupError("a subgroup must contain the identity")
        if any(a >= b for a, b in zip(els, els[1:])) or els[-1] >= G.order:
            raise GroupError("subgroup elements must be strictly increasing "
                             f"indices in 0..{G.order - 1}")
        eset = frozenset(els)
        object.__setattr__(self, "element_set", eset)
        if not eset.issuperset(self.generators):
            raise GroupError("subgroup not closed under products")
        # what the greedy generators generate contains the given generators
        # and elements, so it is the set exactly when no closure grows past
        # it (a finite set closed under products is closed under inverses)
        try:
            gens = _greedy_generators((*self.generators, *self.elements), 0,
                                      G.mul, len(eset))[0]
        except GroupError:
            raise GroupError("subgroup not closed under products") from None
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def _from_closure(cls, parent: FiniteGroup, elements: tuple[int, ...],
                      generators: tuple[int, ...]) -> Subgroup:
        """A subgroup that a closure routine built from `generators`, so it
        is not checked again; a subgroup from anywhere else goes through the
        validating constructor."""
        S = object.__new__(cls)
        object.__setattr__(S, "parent", parent)
        object.__setattr__(S, "elements", elements)
        object.__setattr__(S, "generators", generators)
        object.__setattr__(S, "element_set", frozenset(elements))
        return S

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, i: int) -> bool:
        return i in self.element_set

    @cached_property
    def _normal(self) -> bool:
        G = self.parent
        for g in G.generators:
            # g^-1 = g^(m-1): a walk of <g>, not G's whole inverse list
            ginv = G.power(g, G.element_order(g) - 1)
            for x in self.generators:
                if G.mul(ginv, G.mul(x, g)) not in self.element_set:
                    return False
        return True

    def is_normal(self) -> bool:
        """Normality in the parent, tested once per subgroup object."""
        return self._normal

    @cached_property
    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group; raw values are parent indices."""
        G = self.parent
        return FiniteGroup(
            self.elements,
            compose=G.mul,
            identity=0,
            generators=self.generators,
            name=f"{G.name}-sub{self.order}",
        )

    @cached_property
    def class_fusion(self) -> tuple[int, ...]:
        """The parent class of each conjugacy class of as_group."""
        class_of = self.parent.class_of
        Hg = self.as_group
        return tuple(class_of[Hg.elements[rep]] for rep in Hg.class_representatives)

    @cached_property
    def class_counts(self) -> tuple[tuple[int, int], ...]:
        """The (class, count) pairs of the parent classes of the elements of
        H, in the order of first occurrence (the identity class first), read
        from the elements with no group product."""
        class_of = self.parent.class_of
        return tuple(Counter(class_of[h] for h in self.elements).items())

    @cached_property
    def coset_class_counts(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each class representative g of the parent, the (class, count)
        pairs of the elements of gH.  Representatives in one coset share one
        tuple, and those in H share `class_counts`, so the build takes at
        most |G| - |H| products."""
        G = self.parent
        class_of, mul = G.class_of, G.mul
        counts_at = dict.fromkeys(self.elements, self.class_counts)
        out = []
        for g in G.class_representatives:
            counts = counts_at.get(g)
            if counts is None:
                coset = [mul(g, h) for h in self.elements]
                counts = tuple(Counter(class_of[x] for x in coset).items())
                counts_at.update(dict.fromkeys(coset, counts))
            out.append(counts)
        return tuple(out)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


def generated_subgroup(G: FiniteGroup, generators) -> Subgroup:
    gens = tuple(sorted(set(g for g in generators if g != 0)))
    return Subgroup._from_closure(G, subgroup_closure(G, gens), gens)


class CosetAction:
    """Left translation by G = H.parent on the left cosets gamma_i H.

    The cosets are numbered in the order of their least elements, and gamma_i
    is the least element of the i-th: walking g = 0, 1, ..., each g not yet
    placed opens a coset gH, |G| products in all.  Any other transversal
    changes the embedding g -> (sigma, cocycle) into S_n wr H only by an inner
    automorphism of the wreath product.
    """

    def __init__(self, H: Subgroup):
        G = H.parent
        transversal = []
        slot = [None] * G.order
        for g in range(G.order):
            if slot[g] is None:
                for h in H.elements:
                    slot[G.mul(g, h)] = len(transversal)
                transversal.append(g)
        self.group = G
        self.transversal = tuple(transversal)
        self._slot = slot
        self._inverses = [G.inv(t) for t in self.transversal]

    def image(self, g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(sigma, cocycle) with g gamma_i in gamma_sigma(i) H and cocycle[i] =
        gamma_sigma(i)^-1 g gamma_i, an element of H given as an index of G."""
        mul = self.group.mul
        moved = [mul(g, t) for t in self.transversal]
        sigma = tuple(self._slot[x] for x in moved)
        cocycle = tuple(mul(self._inverses[j], x) for j, x in zip(sigma, moved))
        return sigma, cocycle


# -- group constructors -------------------------------------------------------


def group_from_permutations(generators, name="permgroup",
                            max_order=DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Closure of permutations given as tuples of 0-indexed images."""
    gens = [tuple(g) for g in generators]
    degree = len(gens[0]) if gens else 1
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise GroupError(f"{g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    members = _greedy_generators(gens, identity, _perm_compose, max_order)[1]
    return FiniteGroup(members, _perm_compose, identity,
                       generators=gens, name=name)


def group_from_cayley_table(table, name="tablegroup") -> FiniteGroup:
    """Group from an n x n table of indices; the identity is located, and
    associativity is checked exactly by Light's test: the z with (xy)z = x(yz)
    for all x, y are closed under products, so it suffices that each greedy
    generator s passes (ab)s = a(bs) for all a, b (n^2 lookups).  A generator
    is checked before it is used, so the elements reached stay a group that at
    least doubles with each one: at most log2(n) + 1 checks."""
    n = len(table)
    for row in table:
        if len(row) != n or sorted(row) != list(range(n)):
            raise GroupError("table rows must be permutations of 0..n-1")
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            raise GroupError("table columns must be permutations of 0..n-1")
    identity = next(
        (e for e in range(n)
         if all(table[e][j] == j for j in range(n))
         and all(table[i][e] == i for i in range(n))),
        None,
    )
    if identity is None:
        raise GroupError("table has no identity")
    gens: list[int] = []
    reached = {identity}
    for s in range(n):
        if s in reached:
            continue
        column = [row[s] for row in table]  # column[b] = bs
        # row a: [(ab)s for each b] against [a(bs) for each b]
        if any([column[x] for x in row] != [row[y] for y in column]
               for row in table):
            raise GroupError("table is not associative")
        gens.append(s)
        reached = orbit(reached, gens, lambda x, g: table[x][g])
    return FiniteGroup(
        range(n),
        compose=lambda a, b: table[a][b],
        identity=identity,
        generators=gens,
        name=name,
    )


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("order must be positive")
    cycle = tuple(list(range(1, n)) + [0])
    return group_from_permutations([cycle], name=f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return group_from_permutations([], name=f"S{n}")
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return group_from_permutations([swap, cycle], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n <= 2:
        return group_from_permutations([], name=f"A{n}")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return group_from_permutations([three], name="A3")
    if n % 2:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return group_from_permutations([three, big], name=f"A{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points."""
    if n < 2:
        raise GroupError("dihedral group needs n >= 2")
    rot = tuple(list(range(1, n)) + [0])
    flip = tuple((n - i) % n for i in range(n))
    return group_from_permutations([rot, flip], name=f"D{n}")


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8, elements x^a y^b with y x = x^-1 y."""

    def compose(u, v):
        a, b = u
        c, d = v
        e = (a + (c if b == 0 else -c) + (2 if b and d else 0)) % 4
        return (e, b ^ d)

    elements = [(a, b) for a in range(4) for b in range(2)]
    return FiniteGroup(elements, compose, (0, 0),
                       generators=[(1, 0), (0, 1)], name="Q8")


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    if not is_prime(p) or k < 1:
        raise GroupError("need a prime p and k >= 1")

    def compose(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    elements = list(iter_product(range(p), repeat=k))
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return FiniteGroup(elements, compose, (0,) * k,
                       generators=gens, name=f"E{p}^{k}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    def compose(u, v):
        return (G.mul(u[0], v[0]), H.mul(u[1], v[1]))

    elements = list(iter_product(range(G.order), range(H.order)))
    gens = [(g, 0) for g in G.generators] + [(0, h) for h in H.generators]
    return FiniteGroup(elements, compose, (0, 0),
                       generators=gens, name=f"{G.name}x{H.name}")


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 group over F_p: extraspecial of order p^3, exponent p
    for odd p (p = 2 gives the dihedral group of order 8)."""
    if not is_prime(p):
        raise GroupError("p must be prime")

    def compose(u, v):
        a, b, c = u
        d, e, f = v
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    elements = list(iter_product(range(p), repeat=3))
    return FiniteGroup(elements, compose, (0, 0, 0),
                       generators=[(1, 0, 0), (0, 1, 0)], name=f"Heis{p}")


def extraspecial_exponent_p2_group(p: int) -> FiniteGroup:
    """The other extraspecial group of order p^3: C_(p^2) semidirect C_p,
    the generator of C_p acting by x -> x^(1+p) (p = 2 gives the quaternions
    up to isomorphism of tables, but use quaternion_group for Q8)."""
    if not is_prime(p):
        raise GroupError("p must be prime")
    p2 = p * p

    def compose(u, v):
        i, j = u
        k, l = v
        return ((i + k * pow(1 + p, j, p2)) % p2, (j + l) % p)

    elements = [(i, j) for i in range(p2) for j in range(p)]
    return FiniteGroup(elements, compose, (0, 0),
                       generators=[(1, 0), (0, 1)], name=f"ES{p}^3+")


# -- normal subgroup lattice ---------------------------------------------------


def _class_closure(G: FiniteGroup, cls, N: Subgroup, M: Subgroup) -> Subgroup:
    """<cls> for a class lying in the normal subgroup M and outside the
    normal subgroup N <= <cls>: grown from N by whole cosets N.y, and M as
    soon as it has more than half of M's elements."""
    half = M.order // 2
    members = N.element_set
    gens = []
    for x in cls:
        if x not in members:
            gens.append(x)
            members = _extend_closed(members, gens, G.mul, 0, stop=half)
            if len(members) > half:
                return M
    return Subgroup._from_closure(G, tuple(sorted(members)),
                                  tuple(sorted({*N.generators, *gens})))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, as joins of the normal closures <C> of the
    non-trivial conjugacy classes C.

    The Galois orbits of classes (the rows of G.power_maps) are visited
    once each, by increasing order m of the representative g of their first
    class, since the classes of g^a for a prime to m share <g^a> = <g>.
    Each <C> is bounded by normal subgroups already known (the Lagrange and
    power-map arguments for normal-closure lattices; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005):
    - N, the largest closure of a class of g^p (p a prime dividing m), lies
      in <C>, so <C> = N when g is in N;
    - M, the smallest closure found so far that contains g (or G), contains
      <C>, so <C> = M when [M : N] is prime, and a closure grown from N is M
      once it has more than |M|/2 elements.
    """
    classes = G.conjugacy_classes
    # built here, not cached on G like full_subgroup(), so that it lives
    # only as long as the list returned
    top = Subgroup._from_closure(G, tuple(range(G.order)), tuple(G.generators))
    closure = {0: G.trivial_subgroup()}
    base = []  # the distinct closures, in the order they were found
    for row in sorted(G.power_maps[1:], key=len):
        m = len(row)
        g = classes[row[1]][0]
        # row[p % m] is the class of g^p, the identity's when p = m
        N = max((closure[row[p % m]] for p in range(2, m + 1)
                 if m % p == 0 and is_prime(p)), key=lambda S: S.order)
        if g in N:
            C = N
        else:
            M = min((S for S in base if g in S), key=lambda S: S.order,
                    default=top)
            C = M if is_prime(M.order // N.order) else _class_closure(
                G, classes[row[1]], N, M)
        if C not in base:
            base.append(C)
        for c in galois_orbit(row):
            closure[c] = C

    def join(A: Subgroup, B: Subgroup) -> Subgroup:
        if B.element_set <= A.element_set:
            return A
        if A.element_set <= B.element_set:
            return B
        # A is normal, so the join is the product set AB, a union of cosets A.b
        gens = tuple(sorted(set(A.generators) | set(B.generators)))
        members = _extend_closed(A.elements, B.generators, G.mul, 0)
        return Subgroup._from_closure(G, tuple(sorted(members)), gens)

    # the join of all of base is G itself, so G is among the joins found
    found = orbit([G.trivial_subgroup()] + base, base, join)
    return sorted(found, key=lambda S: (S.order, S.elements))


def is_simple(G: FiniteGroup) -> bool:
    return G.order > 1 and len(normal_subgroups(G)) == 2


def longest_normal_chain(subgroups: list[Subgroup]) -> int:
    """Longest chain under inclusion in the given list (endpoints included)."""
    order = sorted(subgroups, key=lambda S: S.order)
    sets = [S.element_set for S in order]
    best = [1] * len(order)
    for i in range(len(order)):
        for j in range(i):
            if len(sets[j]) < len(sets[i]) and sets[j] <= sets[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


# -- wreath products and the coset embedding ----------------------------------


class WreathProduct:
    """Gamma wr H for a permutation group Gamma on n points and a base H.

    Elements are written sigma.(h_1, ..., h_n) and stored raw as
    (sigma, (i_1, ..., i_n)) with sigma an image tuple and i_k indices into H.
    Conjugation satisfies sigma^-1 (h_1,...,h_n) sigma = (h_sigma(1), ...,
    h_sigma(n)), which forces the product rule used here.  Composition is lazy:
    the full product is only enumerated by group().
    """

    def __init__(self, base: FiniteGroup, top_perms):
        self.base = base
        self.top = sorted(set(tuple(t) for t in top_perms))
        self.n = len(self.top[0])
        ident = tuple(range(self.n))
        if ident not in self.top:
            raise GroupError("top permutation set must contain the identity")
        for a in self.top:
            if len(a) != self.n or sorted(a) != list(range(self.n)):
                raise GroupError("top elements must be permutations")
        # what the greedy generators generate contains the top set, so it is
        # the top set exactly when no closure grows past len(self.top)
        try:
            self.top_generators = _greedy_generators(
                self.top, ident, _perm_compose, len(self.top))[0]
        except GroupError:
            raise GroupError("top permutation set must be a group") from None
        self.top_identity = ident
        self.identity = (ident, (0,) * self.n)

    @property
    def order(self) -> int:
        return len(self.top) * self.base.order**self.n

    def compose(self, u, v):
        s1, h1 = u
        s2, h2 = v
        if self.base.order <= BASE_TABLE_MAX_ORDER:
            t = self.base._mul_rows
            return (tuple([s1[x] for x in s2]),
                    tuple([t[h1[x]][y] for x, y in zip(s2, h2)]))
        mul = self.base.mul
        return (
            _perm_compose(s1, s2),
            tuple(mul(h1[s2[i]], h2[i]) for i in range(self.n)),
        )

    def base_element(self, h_indices) -> tuple:
        return (self.top_identity, tuple(h_indices))

    def top_element(self, sigma) -> tuple:
        return (tuple(sigma), (0,) * self.n)

    def group(self, max_order=DEFAULT_MAX_ORDER) -> FiniteGroup:
        """Enumerate the full wreath product (within the order bound)."""
        if self.order > max_order:
            raise GroupError(
                f"wreath product order {self.order} exceeds bound {max_order}"
            )
        elements = [
            (s, h)
            for s in self.top
            for h in iter_product(range(self.base.order), repeat=self.n)
        ]
        # the top and the base at one point of each top orbit generate it
        gens = [self.top_element(s) for s in self.top_generators]
        covered = set()
        for i in range(self.n):
            if i not in covered:
                covered |= orbit([i], self.top_generators, _row_lookup)
                gens += [self.base_element([0] * i + [g] + [0] * (self.n - 1 - i))
                         for g in self.base.generators]
        return FiniteGroup(elements, self.compose, self.identity,
                           generators=gens,
                           name=f"{len(self.top)}wr{self.base.name}")

    def subgroup_from_raw(self, raws, name="wreath-sub",
                          max_order=DEFAULT_MAX_ORDER) -> FiniteGroup:
        """Closure of raw wreath elements as a standalone FiniteGroup."""
        gens = [tuple(r) for r in raws]
        members = _greedy_generators(gens, self.identity, self.compose,
                                     max_order)[1]
        return FiniteGroup(members, self.compose, self.identity,
                           generators=gens, name=name)


def rotation(n: int, k: int) -> tuple[int, ...]:
    """The k-th power i -> i+k mod n of the rotation of n points."""
    return tuple((i + k) % n for i in range(n))


def cyclic_rotations(n: int) -> list[tuple[int, ...]]:
    """The cyclic group generated by i -> i+1 mod n, as image tuples; entry k
    is rotation(n, k)."""
    return [rotation(n, k) for k in range(n)]


def wreath_cyclic(H: FiniteGroup, ell: int) -> WreathProduct:
    """C_ell wr H with the cyclic group rotating the ell coordinates."""
    if ell < 1:
        raise GroupError("ell must be >= 1")
    return WreathProduct(H, cyclic_rotations(ell))


@dataclass(frozen=True)
class WreathEmbedding:
    """The coset embedding G -> S_n wr H for H of index n.

    images[g] = (sigma_g, (t_1, ..., t_n)) with t_i = gamma_(sigma_g(i))^-1 g
    gamma_i in H; sigma_g is left translation on the cosets gamma_i H.  The
    t_i are stored as indices into H.as_group.
    """

    wreath: WreathProduct
    images: tuple[tuple, ...]


def embed_in_wreath(G: FiniteGroup, H: Subgroup) -> WreathEmbedding:
    """Embed G into S_n wr H via the transversal of `CosetAction`.

    g maps to sigma_g.(t_1, ..., t_n) where g gamma_i lies in the coset
    gamma_(sigma_g(i)) H and t_i = gamma_(sigma_g(i))^-1 g gamma_i.  Any
    other transversal changes the image only by an inner automorphism of the
    wreath product.
    """
    action = CosetAction(H)
    Hgroup = H.as_group
    images = []
    for g in range(G.order):
        sigma, cocycle = action.image(g)
        images.append((sigma, tuple(Hgroup.index[t] for t in cocycle)))
    # g -> sigma_g is a homomorphism, so its images already form the top group
    W = WreathProduct(Hgroup, {sigma for sigma, _ in images})
    return WreathEmbedding(W, tuple(images))


# -- classifiers ---------------------------------------------------------------


@dataclass(frozen=True)
class GoursatResult:
    """Either the full power H^ell, or a twisted diagonal given by the
    automorphisms phi_2, ..., phi_ell of H (phi_1 is the identity)."""

    full: bool
    automorphisms: tuple[tuple[int, ...], ...] = ()


def goursat_classify(Hp, H: FiniteGroup, ell: int) -> GoursatResult:
    """Classify a shift-stable subgroup of H^ell, given as its ell-tuples of
    H's indices, surjecting onto the first factor, for simple H and prime
    ell: it is full or a twisted diagonal."""
    elems = [tuple(t) for t in Hp]
    eset = set(elems)
    if not is_prime(ell):
        raise GroupError(f"ell = {ell} must be prime")
    for t in elems:
        if len(t) != ell:
            raise GroupError("elements must be ell-tuples")
    for t in elems:
        if t[1:] + t[:1] not in eset:
            raise GroupError("subgroup is not stable under the coordinate shift")
    first = {t[0] for t in elems}
    if len(first) != H.order:
        raise GroupError("subgroup does not surject onto the first factor")
    if not is_simple(H):
        raise GroupError("base group is not simple")
    if len(elems) == H.order**ell:
        return GoursatResult(full=True)
    by_first = {}
    for t in elems:
        if t[0] in by_first:
            raise GoursatDichotomyError(
                "subgroup is neither full nor a graph over the first factor "
                "(possible only for an abelian base with ell > 2)"
            )
        by_first[t[0]] = t
    phis = []
    for j in range(1, ell):
        phi = tuple(by_first[h][j] for h in range(H.order))
        if sorted(phi) != list(range(H.order)):
            raise GroupError("coordinate map is not a bijection")
        # phi(a s) = phi(a) phi(s) for generators s gives it for words s in
        # them by induction, and phi(1) = 1 at a = 1
        for a in range(H.order):
            for s in H.generators:
                if phi[H.mul(a, s)] != H.mul(phi[a], phi[s]):
                    raise GroupError("coordinate map is not an automorphism")
        phis.append(phi)
    rebuilt = {tuple([h] + [phi[h] for phi in phis]) for h in range(H.order)}
    if rebuilt != eset:
        raise GroupError("twisted diagonal reconstruction failed")
    return GoursatResult(full=False, automorphisms=tuple(phis))


@dataclass(frozen=True)
class WreathCaseReport:
    """Classification of a subgroup of C_ell wr H covering the top C_ell."""

    case: str  # "full_wreath" or "semidirect"
    abelian_base: bool
    goursat: GoursatResult
    normal_subgroup_orders: tuple[int, ...]
    max_normal_chain_length: int
    chain_bound_ok: bool | None
    trichotomy_ok: bool | None
    direct_product: bool | None
    normal_subgroups: tuple[Subgroup, ...] = field(compare=False, default=())


def classify_wreath_subgroup(W: WreathProduct,
                             gbar: FiniteGroup) -> WreathCaseReport:
    """Case analysis for subgroups of C_ell wr H covering the top.

    Either the base intersection is all of H^ell (full wreath case) or it is a
    twisted diagonal copy of H (semidirect case).  For non-abelian simple H
    the normal subgroups are verified to be exactly 1, the base intersection
    and the whole group, and no normal chain is longer than 3; for abelian H
    the trichotomy fails (diagonals become normal) so it is only flagged.
    In the semidirect case a direct-product complement is searched for.
    A base that is not simple is refused by goursat_classify.
    """
    ell = W.n
    if not is_prime(ell):
        raise GroupError(f"top degree ell = {ell} must be prime")
    if len(W.top) != ell:
        raise GroupError("top group must be the cyclic rotation group")
    H = W.base
    abelian = H.is_abelian()
    tops = {gbar.elements[i][0] for i in range(gbar.order)}
    if len(tops) != ell:
        raise GroupError("subgroup does not cover the top cyclic group")
    kernel = [i for i in range(gbar.order)
              if gbar.elements[i][0] == W.top_identity]
    goursat = goursat_classify([gbar.elements[i][1] for i in kernel], H, ell)
    case = "full_wreath" if goursat.full else "semidirect"

    normals = normal_subgroups(gbar)
    orders = tuple(S.order for S in normals)
    chain = longest_normal_chain(normals)

    direct_product = None
    if case == "semidirect":
        kgens = kernel[1:]  # kernel[0] is the identity
        direct_product = any(
            gbar.elements[t][0] != W.top_identity
            and gbar.element_orders[t] == ell
            and all(gbar.mul(t, k) == gbar.mul(k, t) for k in kgens)
            for t in range(1, gbar.order))

    trichotomy_ok = None
    chain_ok = None
    if not abelian:
        chain_ok = chain <= 3
        if not direct_product:
            # the only normal subgroups are 1, the base intersection, the whole
            expected = {frozenset({0}), frozenset(kernel),
                        frozenset(range(gbar.order))}
            trichotomy_ok = {S.element_set for S in normals} == expected
    return WreathCaseReport(
        case=case,
        abelian_base=abelian,
        goursat=goursat,
        normal_subgroup_orders=orders,
        max_normal_chain_length=chain,
        chain_bound_ok=chain_ok,
        trichotomy_ok=trichotomy_ok,
        direct_product=direct_product,
        normal_subgroups=tuple(normals),
    )


# -- automorphisms -------------------------------------------------------------


def automorphism_count(G: FiniteGroup) -> int:
    """|Aut(G)| by exhaustive search over generator images."""
    gens = G.generators
    class_sizes = {i: len(G.conjugacy_classes[G.class_of[i]])
                   for i in range(G.order)}
    orders = G.element_orders
    candidate_lists = []
    space = 1
    for g in gens:
        cands = [x for x in range(G.order)
                 if orders[x] == orders[g] and class_sizes[x] == class_sizes[g]]
        candidate_lists.append(cands)
        space *= len(cands)
    if space > AUTOMORPHISM_SEARCH_BOUND:
        raise GroupError(f"automorphism search space {space} exceeds bound "
                         f"{AUTOMORPHISM_SEARCH_BOUND}")
    # each tuple of images is then read off rows: phi(x g) = phi(x) phi(g)
    rows = G.right_rows(gens)
    images = sorted(set().union(*candidate_lists))
    image_rows = dict(zip(images, G.right_rows(images)))
    count = 0
    for tup in iter_product(*candidate_lists):
        f = extend_from_generators(rows, [image_rows[x] for x in tup],
                                   _row_lookup, 0)
        if f is not None and len(f) == G.order and len(set(f.values())) == G.order:
            count += 1
    return count


def outer_automorphism_order(G: FiniteGroup) -> int:
    """|Aut(G)| / |Inn(G)| by brute-force automorphism enumeration."""
    aut = automorphism_count(G)
    inn = G.order // len(G.center)
    if aut % inn:
        raise AssertionError("inner automorphisms must divide the total count")
    return aut // inn
