"""Linear algebra and polynomial roots over F_p (internal).

Vectors are lists of Python ints, matrices lists of such rows, and
polynomials int lists in ascending degree; every entry is reduced mod p, so
no product can overflow.  Only what the character-table splitting needs:
rref/kernel, a division-free Hessenberg characteristic polynomial, and the
roots of a polynomial, found by evaluating it at every element of F_p.
"""

from __future__ import annotations


def inv_mod(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def rref(A: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    A = [[x % p for x in row] for row in A]
    rows, cols = len(A), len(A[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        # the pivot row is zero left of c, so rows change only where it is not
        inv = inv_mod(A[r][c], p)
        piv = A[r]
        support = [j for j in range(c, cols) if piv[j]]
        for j in support:
            piv[j] = (piv[j] * inv) % p
        for i in range(rows):
            f = A[i][c]
            if i != r and f:
                row = A[i]
                for j in support:
                    row[j] = (row[j] - f * piv[j]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def kernel_basis(A: list[list[int]], p: int) -> list[list[int]]:
    """Rows spanning the null space of A over F_p."""
    n = len(A[0])
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(R, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    return basis


def combine(coeffs: list[int], rows: list[list[int]], p: int) -> list[int]:
    """The linear combination sum_i coeffs[i] * rows[i] mod p."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * x for a, x in zip(acc, row)]
    return [a % p for a in acc]


def coords_in_rref_basis(vec: list[int], basis: list[list[int]],
                         pivots: list[int], p: int) -> list[int]:
    """Coordinates of vec in an rref basis; raises if vec is outside the span."""
    coords = [vec[c] % p for c in pivots]
    if any((x - y) % p for x, y in zip(vec, combine(coords, basis, p))):
        raise ArithmeticError("vector not in subspace")
    return coords


def charpoly(A: list[list[int]], p: int) -> list[int]:
    """Monic characteristic polynomial of A mod p (ascending coefficients)."""
    H = [[x % p for x in row] for row in A]
    n = len(H)
    # reduce to upper Hessenberg form by similarity
    for c in range(n - 2):
        pr = next((i for i in range(c + 1, n) if H[i][c]), None)
        if pr is None:
            continue
        if pr != c + 1:
            H[c + 1], H[pr] = H[pr], H[c + 1]
            for row in H:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = inv_mod(H[c + 1][c], p)
        for i in range(c + 2, n):
            if H[i][c]:
                f = (H[i][c] * inv) % p
                H[i] = [(x - f * y) % p for x, y in zip(H[i], H[c + 1])]
                for row in H:
                    row[c + 1] = (row[c + 1] + f * row[i]) % p
    # p_k(x) = det(x I - H[:k,:k]) by the Hessenberg recurrence
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        # (x - h_kk) * p_(k-1)
        prev = polys[k - 1]
        cur = [0] + prev
        hkk = H[k - 1][k - 1]
        for i in range(len(prev)):
            cur[i] = (cur[i] - hkk * prev[i]) % p
        # minus sum over i < k of h_(i,k) * (prod of subdiagonals) * p_(i-1)
        run = 1
        for i in range(k - 1, 0, -1):
            run = (run * H[i][i - 1]) % p
            if run == 0:
                break
            hik = H[i - 1][k - 1]
            if hik:
                f = (run * hik) % p
                pi = polys[i - 1]
                for j in range(len(pi)):
                    cur[j] = (cur[j] - f * pi[j]) % p
        polys.append(cur)
    return polys[n]


def roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a non-zero f, in increasing order: f is
    evaluated at every x in F_p at once, one Horner step per coefficient."""
    xs = range(p)
    vals = [0] * p
    for c in reversed(f):
        vals = [(v * x + c) % p for v, x in zip(vals, xs)]
    return [x for x, v in zip(xs, vals) if v == 0]
