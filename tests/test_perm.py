import itertools
import random
from math import comb

import pytest

from homprop.perm import (
    ArityMismatch,
    GradedTuple,
    Permutation,
    all_permutations,
    block_permutation,
    compose,
    from_cycle,
    identity,
    koszul_sign,
    sign,
    transposition,
    unshuffles,
)


def brute_force_compose(p: Permutation, q: Permutation) -> Permutation:
    # Independent oracle: apply as functions, q first.
    return Permutation(tuple(p(q(i)) for i in range(1, p.n + 1)))


def koszul_by_adjacent_swaps(p: Permutation, degs) -> int:
    # Independent oracle: realize p by adjacent transpositions on the slot
    # contents, accumulating (-1)^(d_a d_b) per swap of odd-degree items.
    target = [p.inverse()(j) for j in range(1, p.n + 1)]  # original index per slot
    cur = list(range(1, p.n + 1))
    s = 1
    for pos in range(p.n):
        j = cur.index(target[pos])
        while j > pos:
            a, b = cur[j - 1], cur[j]
            if degs[a - 1] % 2 and degs[b - 1] % 2:
                s = -s
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            j -= 1
    return s


def test_compose_identity_cases():
    swap12 = Permutation((2, 1, 3))
    assert compose(identity(3), swap12) == swap12
    assert compose(swap12, identity(3)) == swap12
    assert compose(Permutation((2, 1)), Permutation((2, 1))) == identity(2)


def test_compose_cycle_with_transposition():
    cycle = from_cycle(3, (1, 2, 3))
    swap = transposition(3, 1, 2)
    expected = brute_force_compose(cycle, swap)
    assert compose(cycle, swap) == expected
    # (1 2 3) . (1 2) is the transposition (1 3)
    assert expected == Permutation((3, 2, 1))


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose(identity(2), identity(3))


def test_compose_associative_exhaustive_small():
    for n in (2, 3, 4):
        elems = list(all_permutations(n))
        for p, q, r in itertools.product(elems, repeat=3):
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_compose_associative_random_up_to_6():
    random.seed(42)
    for n in (5, 6):
        elems = list(all_permutations(n))
        for _ in range(300):
            p, q, r = random.choices(elems, k=3)
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_sign_basics():
    for n in (1, 2, 3, 4):
        assert sign(identity(n)) == 1
    assert sign(Permutation((2, 1))) == -1
    assert sign(from_cycle(4, (1, 2, 3, 4))) == -1  # three transpositions


def test_sign_multiplicative_exhaustive():
    for n in (2, 3, 4):
        elems = list(all_permutations(n))
        for p in elems:
            for q in elems:
                assert sign(compose(p, q)) == sign(p) * sign(q)


def test_block_permutation_examples():
    assert block_permutation(2, 1) == identity(3)
    assert block_permutation(2, 2) == Permutation((2, 1, 3))
    # (x1,x2,y1,y2,y3) -> (y1,x1,x2,y2,y3): x's to slots 2,3; y1 to slot 1.
    assert block_permutation(3, 2) == Permutation((2, 3, 1, 4, 5))


def test_block_permutation_acts_as_stated():
    for n in (2, 3, 4):
        xs = [f"x{k}" for k in range(1, n)]
        ys = [f"y{k}" for k in range(1, n + 1)]
        for i in range(1, n + 1):
            got = block_permutation(n, i).apply(tuple(xs + ys))
            expected = tuple(ys[: i - 1] + xs + ys[i - 1:])
            assert got == expected


def test_block_permutation_range():
    with pytest.raises(ValueError):
        block_permutation(3, 0)
    with pytest.raises(ValueError):
        block_permutation(3, 4)


def test_unshuffles_examples():
    assert unshuffles(1, 0) == [identity(1)]
    assert len(unshuffles(2, 1)) == 3
    assert len(unshuffles(2, 2)) == 6


def test_unshuffles_are_monotone_and_counted():
    for i in range(1, 7):
        for j in range(0, 6):
            if i + j > 6:
                continue
            got = unshuffles(i, j)
            assert len(got) == comb(i + j, i)
            assert len({p.images for p in got}) == len(got)
            for p in got:
                firsts = [p(k) for k in range(1, i + 1)]
                rests = [p(k) for k in range(i + 1, i + j + 1)]
                assert firsts == sorted(firsts)
                assert rests == sorted(rests)
    # Cross-check against a filter over the whole symmetric group.
    filtered = [
        p for p in all_permutations(3)
        if p(1) < p(2)
    ]
    assert {p.images for p in unshuffles(2, 1)} == {p.images for p in filtered}


def test_koszul_sign_examples():
    assert koszul_sign(Permutation((2, 3, 1)), GradedTuple((0, 0, 0))) == 1
    assert koszul_sign(Permutation((2, 1)), (1, 1)) == -1
    assert koszul_sign(from_cycle(3, (1, 2, 3)), (1, 1, 1)) == 1


def test_koszul_sign_even_degrees_trivial():
    for p in all_permutations(3):
        assert koszul_sign(p, (0, 2, 4)) == 1


def test_koszul_sign_matches_adjacent_swap_oracle():
    for n in (2, 3, 4):
        for p in all_permutations(n):
            for degs in itertools.product((0, 1), repeat=n):
                assert koszul_sign(p, degs) == koszul_by_adjacent_swaps(p, degs)


def test_koszul_chain_rule():
    # koszul(pq, d) = koszul(p, q.d) * koszul(q, d) where q.d moves slot
    # contents the same way the permutation action does.
    for n in (2, 3):
        for p in all_permutations(n):
            for q in all_permutations(n):
                for degs in itertools.product((0, 1), repeat=n):
                    lhs = koszul_sign(compose(p, q), degs)
                    moved = q.apply(degs)
                    rhs = koszul_sign(p, moved) * koszul_sign(q, degs)
                    assert lhs == rhs


def test_apply_and_inverse():
    p = Permutation((3, 1, 2))
    assert p.apply(("a", "b", "c")) == ("b", "c", "a")
    assert compose(p, p.inverse()) == identity(3)
    assert compose(p.inverse(), p) == identity(3)


def test_graded_tuple_mismatch():
    with pytest.raises(ArityMismatch):
        koszul_sign(identity(2), (1,))
