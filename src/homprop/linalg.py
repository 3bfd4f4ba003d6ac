"""Exact rational, Z-graded finite-dimensional linear algebra.

This is the carrier of the endomorphism PROP: objects are tensor powers of a
graded space, morphisms are dense matrices of ``fractions.Fraction``.  No
floating point appears anywhere; equality of maps is entrywise rational
equality.

Matrices are dense.  Relation checks neither fold nor build them: they
push basis tuples through sparse integer column tables and read each
verdict off the sparse sum (see :mod:`homprop.algebra`).  Dense products
and tensors remain for morphism checks, the twisting constructions and the
exact linear algebra (rank, inverse, characteristic polynomial);
:func:`compose` and :func:`tensor` list each row's nonzero entries once and
multiply only nonzero pairs, so their cost follows the nonzero entries
rather than the matrix sizes.  Widths beyond ``MAX_TENSOR_WIDTH`` are
refused with a clear error.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .perm import Permutation, koszul_sign

MAX_TENSOR_WIDTH = 8


class ShapeMismatch(ValueError):
    """Sources/targets do not line up for the attempted operation."""


class TensorWidthExceeded(ValueError):
    """Tensor power beyond the documented dense-matrix cap."""


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


def tensor_degrees(space: GradedSpace, power: int) -> tuple[int, ...]:
    """Degrees of the basis of ``space^{(x)power}`` in lexicographic order."""
    check_width(power)
    single = space.basis_degrees()
    degs = [0]
    for _ in range(power):
        degs = [d + s for d in degs for s in single]
    return tuple(degs)


@dataclass(frozen=True)
class LinearMap:
    """Homogeneous map ``source^{(x)m} -> target^{(x)n}`` as a dense matrix.

    ``entries[r][c]`` is the coefficient of target basis element ``r`` in the
    image of source basis element ``c``.  Entries must vanish outside the
    blocks allowed by the declared ``degree``.
    """

    source: GradedSpace
    source_power: int
    target: GradedSpace
    target_power: int
    degree: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = self.target.dim ** self.target_power
        cols = self.source.dim ** self.source_power
        if len(self.entries) != rows or any(len(row) != cols for row in self.entries):
            raise ShapeMismatch(f"matrix must be {rows}x{cols}")
        src = tensor_degrees(self.source, self.source_power)
        tgt = tensor_degrees(self.target, self.target_power)
        for r, row in enumerate(self.entries):
            for c, v in enumerate(row):
                if v != 0 and tgt[r] != src[c] + self.degree:
                    raise ValueError(
                        f"entry ({r},{c}) breaks homogeneity: "
                        f"target degree {tgt[r]} != {src[c]} + {self.degree}"
                    )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def scale(self, c: Fraction) -> "LinearMap":
        return LinearMap(
            self.source, self.source_power, self.target, self.target_power, self.degree,
            tuple(tuple(c * v for v in row) for row in self.entries),
        )

    def add(self, other: "LinearMap") -> "LinearMap":
        if (self.source, self.source_power, self.target, self.target_power) != (
            other.source, other.source_power, other.target, other.target_power
        ):
            raise ShapeMismatch("cannot add maps with different source/target")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ShapeMismatch(f"cannot add degrees {self.degree} and {other.degree}")
        deg = other.degree if self.is_zero() else self.degree
        return LinearMap(
            self.source, self.source_power, self.target, self.target_power, deg,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.source.dim}^(x){self.source_power} -> "
            f"{self.target.dim}^(x){self.target_power}, deg {self.degree})"
        )


def _as_fraction_rows(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)


def make_map(
    source: GradedSpace,
    target: GradedSpace,
    rows: Sequence[Sequence],
    *,
    source_power: int = 1,
    target_power: int = 1,
    degree: int = 0,
) -> LinearMap:
    return LinearMap(source, source_power, target, target_power, degree, _as_fraction_rows(rows))


def identity_map(space: GradedSpace, power: int = 1) -> LinearMap:
    check_width(power)
    n = space.dim ** power
    rows = tuple(
        tuple(Fraction(1) if r == c else Fraction(0) for c in range(n)) for r in range(n)
    )
    return LinearMap(space, power, space, power, 0, rows)


def zero_map(
    source: GradedSpace, source_power: int, target: GradedSpace, target_power: int, degree: int = 0
) -> LinearMap:
    rows = tuple(
        tuple(Fraction(0) for _ in range(source.dim ** source_power))
        for _ in range(target.dim ** target_power)
    )
    return LinearMap(source, source_power, target, target_power, degree, rows)


def _nonzero(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    return [(c, v) for c, v in enumerate(row) if v]


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product ``f . g`` (apply ``g`` first).  Degrees add.

    Each output row sums the nonzero rows ``g[k]`` weighted by the nonzero
    entries ``f[r][k]``; zero entries are never multiplied.
    """
    if (f.source, f.source_power) != (g.target, g.target_power):
        raise ShapeMismatch(f"cannot compose {f} after {g}")
    g_rows = [_nonzero(row) for row in g.entries]
    zero = Fraction(0)
    rows = []
    for frow in f.entries:
        row = [zero] * g.cols
        for k, a in _nonzero(frow):
            for c, b in g_rows[k]:
                row[c] += a * b
        rows.append(tuple(row))
    return LinearMap(g.source, g.source_power, f.target, f.target_power, f.degree + g.degree, tuple(rows))


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product with the Koszul sign on each column block.

    The column indexed by ``x (x) y`` carries the factor ``(-1)^(|g| |x|)``
    where ``|x|`` is the degree of the source basis element fed to ``f``.
    Only products of two nonzero entries are written into zero rows.
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
    f_src_degs = tensor_degrees(f.source, f.source_power)
    odd = g.degree % 2
    f_rows = [[(c, -v if odd and f_src_degs[c] % 2 else v) for c, v in _nonzero(row)]
              for row in f.entries]
    g_rows = [_nonzero(row) for row in g.entries]
    width = g.cols
    zero_row = [Fraction(0)] * (f.cols * width)
    rows = []
    for frow in f_rows:
        for grow in g_rows:
            row = list(zero_row)
            for cf, a in frow:
                base = cf * width
                for cg, b in grow:
                    row[base + cg] = a * b
            rows.append(tuple(row))
    return LinearMap(source, sp, target, tp, f.degree + g.degree, tuple(rows))


def tensor_power(f: LinearMap, k: int) -> LinearMap:
    if k == 0:
        # The empty tensor: the unique map on the 0-th tensor power.
        return LinearMap(f.source, 0, f.target, 0, 0, ((Fraction(1),),))
    out = f
    for _ in range(k - 1):
        out = tensor(out, f)
    return out


def perm_action(p: Permutation, space: GradedSpace) -> LinearMap:
    """Signed permutation matrix moving tensor slot ``i`` to slot ``p(i)``."""
    n = p.n
    check_width(n)
    d = space.dim
    degs = space.basis_degrees()
    size = d ** n
    rows = [[Fraction(0)] * size for _ in range(size)]
    for col, src_tuple in enumerate(itertools.product(range(d), repeat=n)):
        tgt_tuple = p.apply(src_tuple)
        row = 0
        for idx in tgt_tuple:
            row = row * d + idx
        s = koszul_sign(p, [degs[i] for i in src_tuple])
        rows[row][col] = Fraction(s)
    return LinearMap(space, n, space, n, 0, tuple(tuple(r) for r in rows))


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


def is_invertible(f: LinearMap) -> bool:
    return f.rows == f.cols and rank(f) == f.rows


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
    entries = tuple(tuple(aug[r][n:]) for r in range(n))
    return LinearMap(f.target, f.target_power, f.source, f.source_power, -f.degree, entries)


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
    return (
        f.rows == g.rows and f.cols == g.cols and
        all(a == b for r1, r2 in zip(f.entries, g.entries) for a, b in zip(r1, r2))
    )

