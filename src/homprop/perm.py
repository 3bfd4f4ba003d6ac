"""Symmetric group elements with sign and graded (Koszul) bookkeeping.

Permutations are stored in one-line image notation, 1-indexed: a
``Permutation`` with ``images = (p1, ..., pn)`` is the bijection sending
slot ``i`` to slot ``pi``.  Two conventions are fixed here once and used
everywhere else in the package:

- ``compose(p, q)`` applies ``q`` first, then ``p``.
- Acting on a tensor tuple, ``p`` moves the content of slot ``i`` to slot
  ``p(i)``; equivalently the output slot ``j`` receives the content of slot
  ``p^{-1}(j)``.  With this choice ``p -> action(p)`` is a group
  homomorphism for ``compose``.

The Koszul sign of a permutation acting on homogeneous elements is computed
from inversion pairs, never from a transposition decomposition, so that it
is deterministic; the two agree and the tests assert it on small cases.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence


class ArityMismatch(ValueError):
    """Raised when permutations or degree tuples of unequal size meet."""


@dataclass(frozen=True)
class Permutation:
    """Element of the symmetric group on ``{1..n}`` in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.images, start=1))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, p in enumerate(self.images, start=1):
            inv[p - 1] = i
        return Permutation(tuple(inv))

    def apply(self, items: Sequence) -> tuple:
        """Rearrange a tuple: the item in slot ``i`` moves to slot ``p(i)``."""
        if len(items) != self.n:
            raise ArityMismatch(f"tuple of length {len(items)} under a Sigma_{self.n} element")
        out = [None] * self.n
        for i, item in enumerate(items, start=1):
            out[self(i) - 1] = item
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The transposition (i j) inside Sigma_n."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"bad transposition ({i} {j}) in Sigma_{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def from_cycle(n: int, cycle: Sequence[int]) -> Permutation:
    """Permutation of Sigma_n given by one cycle, e.g. (1 2 3): 1->2->3->1."""
    images = list(range(1, n + 1))
    for pos, val in enumerate(cycle):
        images[val - 1] = cycle[(pos + 1) % len(cycle)]
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product ``p . q``: apply ``q`` first, then ``p``."""
    if p.n != q.n:
        raise ArityMismatch(f"cannot compose Sigma_{p.n} with Sigma_{q.n}")
    return Permutation(tuple(p(q(i)) for i in range(1, p.n + 1)))


def inversions(p: Permutation) -> list[tuple[int, int]]:
    """All pairs ``i < j`` with ``p(i) > p(j)``."""
    return [(i, j) for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1) if p(i) > p(j)]


def sign(p: Permutation) -> int:
    return -1 if len(inversions(p)) % 2 else 1


def block_permutation(n: int, i: int) -> Permutation:
    """The Sigma_{2n-1} element sending (x_1..x_{n-1}, y_1..y_n) to
    (y_1..y_{i-1}, x_1..x_{n-1}, y_i..y_n)."""
    if not 1 <= i <= n:
        raise ValueError(f"block_permutation needs 1 <= i <= {n}, got {i}")
    images = [0] * (2 * n - 1)
    # x_k sits in slot k and lands in slot (i-1)+k.
    for k in range(1, n):
        images[k - 1] = i - 1 + k
    # y_k sits in slot (n-1)+k; the first i-1 of them move to the front.
    for k in range(1, n + 1):
        images[n - 1 + k - 1] = k if k <= i - 1 else n - 1 + k
    return Permutation(tuple(images))


def unshuffles(i: int, j: int) -> list[Permutation]:
    """All (i, j)-unshuffles: sigma with sigma(1)<..<sigma(i) and
    sigma(i+1)<..<sigma(i+j).  There are C(i+j, i) of them."""
    if i < 1 or j < 0:
        raise ValueError(f"unshuffles needs i >= 1, j >= 0, got ({i}, {j})")
    n = i + j
    out = []
    for first in itertools.combinations(range(1, n + 1), i):
        rest = tuple(v for v in range(1, n + 1) if v not in first)
        out.append(Permutation(first + rest))
    assert len(out) == comb(n, i)
    return out


@dataclass(frozen=True)
class GradedTuple:
    """Degrees of the slots a permutation acts on."""

    degrees: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.degrees)


def koszul_sign(p: Permutation, degs: GradedTuple | Sequence[int]) -> int:
    """Sign picked up when graded slots move past each other under ``p``.

    Product of (-1)^(d_a * d_b) over all pairs a < b whose relative order is
    reversed, i.e. the inversion pairs of ``p``.  +1 whenever all degrees are
    even.
    """
    degrees = degs.degrees if isinstance(degs, GradedTuple) else tuple(degs)
    if len(degrees) != p.n:
        raise ArityMismatch(f"{len(degrees)} degrees for a Sigma_{p.n} element")
    s = 1
    for a, b in inversions(p):
        if degrees[a - 1] % 2 and degrees[b - 1] % 2:
            s = -s
    return s


def all_permutations(n: int) -> Iterable[Permutation]:
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
