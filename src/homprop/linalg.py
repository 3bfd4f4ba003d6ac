"""Exact rational, Z-graded finite-dimensional linear algebra.

This is the carrier of the endomorphism PROP: objects are tensor powers of a
graded space, morphisms are :class:`LinearMap` values.  No floating point
appears anywhere; equality of maps is exact rational equality.

A map stores integer columns over one denominator ``den``: each input basis
tuple with a nonzero image lists its nonzero ``(output tuple, integer)``
pairs.  :func:`from_columns` keeps every map in lowest terms, so equal maps
are equal values, and every operation multiplies only nonzero integers.
The dense ``Fraction`` rows of :attr:`LinearMap.entries` are derived, for
serialization and the exact rank, inverse and characteristic polynomial.
Widths beyond ``MAX_TENSOR_WIDTH`` are refused with a clear error.

Basis conventions, fixed once and relied on by every golden file:

- A ``GradedSpace`` orders its basis by degree ascending, then by index
  within a degree.
- A tensor power ``V^{(x)k}`` is ordered lexicographically in the factors,
  leftmost factor most significant.
- Graded signs live in :func:`tensor` and :func:`perm_action` only;
  :func:`compose` is sign-free.  The Koszul rule is
  ``(f (x) g)(x (x) y) = (-1)^(|g| |x|) f(x) (x) g(y)``.

With this convention the interchange law

    tensor(compose(a, c), compose(b, d)) == compose(tensor(a, b), tensor(c, d))

holds on the nose whenever ``b`` and ``c`` are not both of odd degree; in
the remaining case the two sides differ by exactly the Koszul interchange
sign (-1)^(|b| |c|).  No elementwise matrix convention removes that sign
without breaking the graded Leibniz/Jacobi sign oracles, and every use of
the interchange law by the twisting constructions has one side of degree 0,
so the anomaly never reaches them.  See :func:`interchange_sign`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .perm import Permutation, koszul_sign

MAX_TENSOR_WIDTH = 8


class ShapeMismatch(ValueError):
    """Sources/targets do not line up for the attempted operation."""


class TensorWidthExceeded(ValueError):
    """Tensor power beyond the documented width cap."""


def check_width(width: int) -> None:
    """Refuse a tensor power wider than ``MAX_TENSOR_WIDTH``."""
    if width > MAX_TENSOR_WIDTH:
        raise TensorWidthExceeded(f"tensor width {width} exceeds cap {MAX_TENSOR_WIDTH}")


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional Z-graded space given by degree -> dimension."""

    dims: tuple[tuple[int, int], ...]  # (degree, dimension), degrees ascending

    def __post_init__(self) -> None:
        degs = [d for d, _ in self.dims]
        if degs != sorted(set(degs)):
            raise ValueError("degrees must be strictly ascending")
        if any(dim < 0 for _, dim in self.dims):
            raise ValueError("dimensions must be non-negative")

    @staticmethod
    def ungraded(dim: int) -> "GradedSpace":
        return GradedSpace(((0, dim),))

    @staticmethod
    def from_dims(dims: dict[int, int]) -> "GradedSpace":
        return GradedSpace(tuple(sorted((d, k) for d, k in dims.items() if k > 0)))

    @property
    def dim(self) -> int:
        return sum(k for _, k in self.dims)

    def basis_degrees(self) -> tuple[int, ...]:
        """Degree of every basis vector, in basis order."""
        out: list[int] = []
        for d, k in self.dims:
            out.extend([d] * k)
        return tuple(out)


Basis = tuple[int, ...]


def _index(tup: Basis, dim: int) -> int:
    """Position of a basis tuple in the lexicographic basis order."""
    i = 0
    for x in tup:
        i = i * dim + x
    return i


@dataclass(frozen=True)
class LinearMap:
    """Homogeneous map ``source^{(x)m} -> target^{(x)n}`` as integer columns
    over one denominator.

    The coefficient of target basis tuple ``r`` in the image of source basis
    tuple ``c`` is ``v / den`` when ``(r, v)`` is listed in ``columns[c]``,
    and zero otherwise.  :func:`from_columns` and :func:`make_map` build maps
    in lowest terms.  ``columns`` takes part in equality but not in the hash,
    as a dict has none.  Entries must vanish outside the blocks allowed by
    the declared ``degree``.
    """

    source: GradedSpace
    source_power: int
    target: GradedSpace
    target_power: int
    degree: int
    den: int
    columns: dict[Basis, tuple[tuple[Basis, int], ...]] = field(hash=False)

    def __post_init__(self) -> None:
        check_width(max(self.source_power, self.target_power))
        src, tgt = self.source.basis_degrees(), self.target.basis_degrees()
        bad = []
        for c, images in self.columns.items():
            want = sum(map(src.__getitem__, c)) + self.degree
            bad += [(r, c) for r, _ in images if sum(map(tgt.__getitem__, r)) != want]
        if bad:
            r, c = min(bad)  # the first offender in row-major order
            raise ValueError(
                f"entry ({_index(r, self.target.dim)},{_index(c, self.source.dim)}) "
                f"breaks homogeneity: target degree {sum(tgt[i] for i in r)} != "
                f"{sum(src[i] for i in c)} + {self.degree}"
            )

    @property
    def rows(self) -> int:
        return self.target.dim ** self.target_power

    @property
    def cols(self) -> int:
        return self.source.dim ** self.source_power

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense matrix: ``entries[r][c]`` is the coefficient of target
        basis element ``r`` in the image of source basis element ``c``."""
        rows = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for c, images in self.columns.items():
            j = _index(c, self.source.dim)
            for r, v in images:
                rows[_index(r, self.target.dim)][j] = Fraction(v, self.den)
        return tuple(tuple(row) for row in rows)

    def is_zero(self) -> bool:
        return not self.columns

    def scale(self, c: Fraction) -> "LinearMap":
        return from_columns(
            self.source, self.source_power, self.target, self.target_power, self.degree,
            self.den * c.denominator,
            {col: [(r, v * c.numerator) for r, v in images]
             for col, images in self.columns.items()},
        )

    def add(self, other: "LinearMap") -> "LinearMap":
        if (self.source, self.source_power, self.target, self.target_power) != (
            other.source, other.source_power, other.target, other.target_power
        ):
            raise ShapeMismatch("cannot add maps with different source/target")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ShapeMismatch(f"cannot add degrees {self.degree} and {other.degree}")
        deg = other.degree if self.is_zero() else self.degree
        den = math.lcm(self.den, other.den)
        both: dict[Basis, list[tuple[Basis, int]]] = {}
        for m in (self, other):
            w = den // m.den
            for c, images in m.columns.items():
                both.setdefault(c, []).extend((r, w * v) for r, v in images)
        return from_columns(self.source, self.source_power, self.target, self.target_power,
                            deg, den, both)

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.source.dim}^(x){self.source_power} -> "
            f"{self.target.dim}^(x){self.target_power}, deg {self.degree})"
        )


def from_columns(source: GradedSpace, source_power: int, target: GradedSpace, target_power: int,
                 degree: int, den: int,
                 columns: Mapping[Basis, Iterable[tuple[Basis, int]]]) -> LinearMap:
    """The map whose entry at ``(r, c)`` is the sum of the ``v`` of the pairs
    ``(r, v)`` listed under ``c``, over ``den > 0``, in lowest terms: zeros
    are dropped, columns and images sorted, and the gcd of ``den`` and all
    entries divided out."""
    table = {}
    for c in sorted(columns):
        sums: dict[Basis, int] = {}
        for r, v in columns[c]:
            sums[r] = sums.get(r, 0) + v
        images = tuple(sorted(pair for pair in sums.items() if pair[1]))
        if images:
            table[c] = images
    g = math.gcd(den, *(v for images in table.values() for _, v in images))
    if g > 1:
        table = {c: tuple((r, v // g) for r, v in images) for c, images in table.items()}
    return LinearMap(source, source_power, target, target_power, degree, den // g, table)


def make_map(
    source: GradedSpace,
    target: GradedSpace,
    rows: Sequence[Sequence],
    *,
    source_power: int = 1,
    target_power: int = 1,
    degree: int = 0,
) -> LinearMap:
    """The map with the dense matrix ``rows`` (as :attr:`LinearMap.entries`);
    each entry is anything ``Fraction`` accepts."""
    n_rows, n_cols = target.dim ** target_power, source.dim ** source_power
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise ShapeMismatch(f"matrix must be {n_rows}x{n_cols}")
    values = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]
    den = math.lcm(*(v.denominator for row in values for v in row))
    ins = list(itertools.product(range(source.dim), repeat=source_power))
    columns: dict[Basis, list[tuple[Basis, int]]] = {}
    for r, row in zip(itertools.product(range(target.dim), repeat=target_power), values):
        for c, v in zip(ins, row):
            if v:
                columns.setdefault(c, []).append((r, v.numerator * (den // v.denominator)))
    return from_columns(source, source_power, target, target_power, degree, den, columns)


def identity_map(space: GradedSpace, power: int = 1) -> LinearMap:
    check_width(power)
    basis = itertools.product(range(space.dim), repeat=power)
    return from_columns(space, power, space, power, 0, 1, {c: ((c, 1),) for c in basis})


def zero_map(
    source: GradedSpace, source_power: int, target: GradedSpace, target_power: int, degree: int = 0
) -> LinearMap:
    return from_columns(source, source_power, target, target_power, degree, 1, {})


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product ``f . g`` (apply ``g`` first).  Degrees add.

    Each column of ``g`` sums the columns of ``f`` at its nonzero entries,
    weighted by them; zero entries are never multiplied.
    """
    if (f.source, f.source_power) != (g.target, g.target_power):
        raise ShapeMismatch(f"cannot compose {f} after {g}")
    out = {c: [(r, a * b) for k, b in images for r, a in f.columns.get(k, ())]
           for c, images in g.columns.items()}
    return from_columns(g.source, g.source_power, f.target, f.target_power,
                        f.degree + g.degree, f.den * g.den, out)


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product with the Koszul sign on each column block.

    The column indexed by ``x (x) y`` carries the factor ``(-1)^(|g| |x|)``
    where ``|x|`` is the degree of the source basis element fed to ``f``.
    Only products of two nonzero entries are formed.
    """
    if f.source_power and g.source_power and f.source != g.source:
        raise ShapeMismatch("tensor of maps over different source spaces")
    if f.target_power and g.target_power and f.target != g.target:
        raise ShapeMismatch("tensor of maps over different target spaces")
    source = f.source if f.source_power else g.source
    target = f.target if f.target_power else g.target
    sp = f.source_power + g.source_power
    tp = f.target_power + g.target_power
    check_width(max(sp, tp))
    degs = f.source.basis_degrees()
    odd = g.degree % 2
    out = {}
    for cf, f_images in f.columns.items():
        sign = -1 if odd and sum(degs[i] for i in cf) % 2 else 1
        for cg, g_images in g.columns.items():
            out[cf + cg] = [(rf + rg, sign * a * b) for rf, a in f_images for rg, b in g_images]
    return from_columns(source, sp, target, tp, f.degree + g.degree, f.den * g.den, out)


def tensor_power(f: LinearMap, k: int) -> LinearMap:
    if k == 0:
        # The empty tensor: the unique map on the 0-th tensor power.
        return from_columns(f.source, 0, f.target, 0, 0, 1, {(): (((), 1),)})
    out = f
    for _ in range(k - 1):
        out = tensor(out, f)
    return out


def perm_action(p: Permutation, space: GradedSpace) -> LinearMap:
    """Signed permutation matrix moving tensor slot ``i`` to slot ``p(i)``."""
    n = p.n
    check_width(n)
    degs = space.basis_degrees()
    return from_columns(space, n, space, n, 0, 1, {
        c: ((p.apply(c), koszul_sign(p, [degs[i] for i in c])),)
        for c in itertools.product(range(space.dim), repeat=n)
    })


def _echelon(rows: list[list[Fraction]]) -> int:
    """In-place Gaussian elimination; returns the rank."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank(f: LinearMap) -> int:
    return _echelon([list(row) for row in f.entries])


def is_injective(f: LinearMap) -> bool:
    return rank(f) == f.cols


def inverse_map(f: LinearMap) -> LinearMap:
    """Exact inverse of a square invertible map."""
    if f.rows != f.cols:
        raise ShapeMismatch("only square maps can be inverted")
    n = f.rows
    aug = [list(row) + [Fraction(1) if r == c else Fraction(0) for c in range(n)]
           for r, row in enumerate(f.entries)]
    _echelon(aug)
    # [A | I] has rank n; A is invertible exactly when every pivot lies in
    # the left block.  Otherwise row rank(A) pivots on the right and has a 0
    # on the diagonal.
    if any(aug[r][r] == 0 for r in range(n)):
        raise ValueError("map is singular")
    return make_map(f.target, f.source, [aug[r][n:] for r in range(n)],
                    source_power=f.target_power, target_power=f.source_power, degree=-f.degree)


def matrix_power(f: LinearMap, k: int) -> LinearMap:
    if (f.source, f.source_power) != (f.target, f.target_power):
        raise ShapeMismatch("matrix power needs an endomorphism")
    out = identity_map(f.source, f.source_power)
    for _ in range(k):
        out = compose(f, out)
    return out


def char_poly(f: LinearMap) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients ``(1, c_{n-1}, ..., c_0)`` for
    ``t^n + c_{n-1} t^{n-1} + ... + c_0``, by Faddeev-LeVerrier."""
    if f.rows != f.cols:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    n = f.rows
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]  # M_0 = 0
    a = [list(row) for row in f.entries]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        am = [[sum((a[r][t] * m[t][c] for t in range(n)), Fraction(0)) for c in range(n)]
              for r in range(n)]
        for r in range(n):
            am[r][r] += coeffs[-1]
        trace = sum((sum((a[r][t] * am[t][r] for t in range(n)), Fraction(0)) for r in range(n)),
                    Fraction(0))
        coeffs.append(Fraction(-1, k) * trace)
        m = am
    return tuple(coeffs)


def interchange_sign(b: LinearMap, c: LinearMap) -> int:
    """The Koszul sign relating the two sides of the interchange law when
    the upper-right map ``b`` slides past the lower-left map ``c``."""
    return -1 if (b.degree % 2 and c.degree % 2) else 1


def maps_equal(f: LinearMap, g: LinearMap) -> bool:
    """Entrywise equality of two maps between the same tensor powers of
    spaces of the same dimensions; the gradings and degrees are not compared."""
    return (f.source.dim, f.source_power, f.target.dim, f.target_power, f.den, f.columns) == (
        g.source.dim, g.source_power, g.target.dim, g.target_power, g.den, g.columns)

