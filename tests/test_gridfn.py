import math
from fractions import Fraction

import numpy as np
import pytest

from convmax import gridfn
from convmax.errors import DimensionMismatch, MemoryCapExceeded, ZeroMassInput
from convmax.gridfn import (
    GridFn,
    _codes,
    _convolve_rows,
    _convolve_seq,
    _digits,
    convolve,
    convolve_many,
    l1_norm,
    product_function,
    ratio,
    sup_norm,
)

from conftest import brute_convolve, random_exact_gridfn


def g1(*vals):
    m = len(vals) - 1
    return GridFn(1, m, vals)


def zero_heavy(rng, d, m):
    """Random exact function with about two thirds of its entries zeroed."""
    f = random_exact_gridfn(rng, d, m, allow_zero=True)
    return GridFn(d, m, [v if rng.random() < 1 / 3 else 0 for v in f.values])


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            g1(1, -1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected"):
            GridFn(2, 1, (1, 2, 3))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridFn(0, 1, (1, 2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            g1(1.0, float("nan"))

    def test_memory_cap(self):
        with pytest.raises(MemoryCapExceeded):
            GridFn(30, 9, ())

    def test_indexing_row_major_first_coordinate_slowest(self):
        f = GridFn(2, 1, (10, 11, 12, 13))
        assert f[(0, 0)] == 10
        assert f[(0, 1)] == 11
        assert f[(1, 0)] == 12
        assert f[(1, 1)] == 13
        assert list(f.points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_exact_flag(self):
        assert g1(Fraction(1, 2), 1).is_exact
        assert not g1(0.5, 1).is_exact


class TestPointLayout:
    @pytest.mark.parametrize("d,m,base", [(1, 0, 1), (1, 3, 4), (2, 1, 2), (2, 2, 5),
                                          (3, 1, 3), (3, 2, 3), (4, 1, 5)])
    def test_digits_of_codes_are_storage_order(self, d, m, base):
        points = list(GridFn(d, m, [0] * (m + 1) ** d).points())
        assert [_digits(c, d, base) for c in _codes(d, m, base)] == points

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cube_codes_put_bit_j_at_digit_j(self, d, k):
        # mask bit j (bit d-1 is the first coordinate) is digit j in base k+1
        expected = [sum((mask >> j & 1) * (k + 1) ** j for j in range(d))
                    for mask in range(2**d)]
        assert _codes(d, 1, k + 1) == expected

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 80)
        with pytest.raises(MemoryCapExceeded, match="81 exceeds cap 80"):
            _codes(4, 1, 3)
        with pytest.raises(MemoryCapExceeded):
            convolve(GridFn(4, 1, [1] * 16), GridFn(4, 1, [1] * 16))
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 81)
        assert len(_codes(4, 1, 3)) == 16
        assert convolve(GridFn(4, 1, [1] * 16), GridFn(4, 1, [1] * 16)).values[40] == 16


class TestConvolve:
    def test_delta_is_identity(self):
        g = g1(Fraction(1, 3), 2, 0)
        conv = convolve(GridFn.delta(1), g)
        assert conv.values == g.values
        h = GridFn(2, 1, (1, 2, 3, 4))
        assert convolve(GridFn.delta(2), h).values == h.values

    def test_square_of_21(self):
        assert convolve(g1(2, 1), g1(2, 1)).values == (4, 4, 1)

    def test_square_of_11(self):
        assert convolve(g1(1, 1), g1(1, 1)).values == (1, 2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convolve(g1(1, 1), GridFn(2, 1, (1, 1, 1, 1)))

    def test_exact_in_exact_out(self):
        out = convolve(g1(Fraction(1, 3), Fraction(2, 3)), g1(Fraction(1, 2), Fraction(1, 2)))
        assert out.is_exact
        assert out.values == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))

    def test_matches_brute_force(self, rng):
        pairs = []
        for _ in range(30):
            d = rng.randint(1, 3)
            pairs.append((random_exact_gridfn(rng, d, rng.randint(1, 2)),
                          random_exact_gridfn(rng, d, rng.randint(1, 2))))
        for _ in range(15):  # mostly zeros, possibly all zero
            d, mf, mg = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
            pairs.append((zero_heavy(rng, d, mf), zero_heavy(rng, d, mg)))
        for _ in range(5):  # 0/1 indicators on {0,1}^4, the Sidon shape
            pairs.append(tuple(GridFn(4, 1, [rng.randint(0, 1) for _ in range(16)])
                               for _ in range(2)))
        for d in (1, 2, 3):  # unequal sides
            f, g = random_exact_gridfn(rng, d, 0), random_exact_gridfn(rng, d, 2)
            pairs += [(f, g), (g, f)]
        for f, g in pairs:
            conv = convolve(f, g)
            expected = brute_convolve(f, g)
            assert (conv.d, conv.m) == (f.d, f.m + g.m)
            for p in conv.points():
                assert conv[p] == expected.get(p, 0)

    def test_commutative(self, rng):
        for _ in range(20):
            d = rng.randint(1, 2)
            f = random_exact_gridfn(rng, d)
            g = random_exact_gridfn(rng, d)
            assert convolve(f, g).values == convolve(g, f).values

    def test_l1_multiplicative(self, rng):
        for _ in range(20):
            f = random_exact_gridfn(rng, 2)
            g = random_exact_gridfn(rng, 2)
            assert l1_norm(convolve(f, g)) == l1_norm(f) * l1_norm(g)


class TestConvolveRows:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_each_row_matches_convolve_seq(self, rng, dtype):
        for la, lb in [(1, 1), (1, 4), (3, 2), (5, 5)]:
            a = [[rng.randint(0, 9) for _ in range(la)] for _ in range(6)]
            b = [[rng.randint(0, 9) for _ in range(lb)] for _ in range(6)]
            out = _convolve_rows(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
            assert out.dtype == dtype and out.shape == (6, la + lb - 1)
            assert out.tolist() == [_convolve_seq(x, y) for x, y in zip(a, b)]

    def test_object_rows_stay_exact_past_int64(self):
        big = 3**40
        a = np.array([[big, 1], [0, big]], dtype=object)
        out = _convolve_rows(a, a)
        assert out.tolist() == [[big * big, 2 * big, 1], [0, 0, big * big]]
        assert all(type(v) is int for v in out.ravel())


class TestConvolveMany:
    def test_triple_11(self):
        assert convolve_many([g1(1, 1)] * 3).values == (1, 3, 3, 1)

    def test_single_factor(self):
        f = g1(5, 7)
        assert convolve_many([f]).values == f.values

    def test_pair_matches_convolve(self):
        assert convolve_many([g1(2, 1), g1(2, 1)]).values == (4, 4, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convolve_many([])

    def test_fold_order_independent(self, rng):
        for _ in range(10):
            fs = [random_exact_gridfn(rng, 2) for _ in range(4)]
            ref = convolve_many(fs).values
            order = list(range(4))
            rng.shuffle(order)
            assert convolve_many([fs[i] for i in order]).values == ref


class TestNorms:
    def test_simple(self):
        assert l1_norm(g1(2, 1)) == 3
        assert sup_norm(g1(2, 1)) == 2

    def test_conv_output(self):
        assert l1_norm(g1(4, 4, 1)) == 9
        assert sup_norm(g1(4, 4, 1)) == 4

    def test_all_zero(self):
        z = g1(0, 0)
        assert l1_norm(z) == 0
        assert sup_norm(z) == 0


class TestRatio:
    def test_21_squared(self):
        assert ratio([g1(2, 1), g1(2, 1)]) == Fraction(4, 9)
        mixed = ratio([g1(2, 1), g1(2.0, 1.0)])
        assert type(mixed) is float and mixed == 4 / 9

    def test_triple_11(self):
        assert ratio([g1(1, 1)] * 3) == Fraction(3, 8)

    def test_deltas(self):
        assert ratio([g1(1, 0), g1(0, 1)]) == 1

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassInput):
            ratio([g1(0, 0), g1(1, 1)])

    def test_scale_invariance_exact(self, rng):
        for _ in range(10):
            fs = [random_exact_gridfn(rng, 2) for _ in range(3)]
            before = ratio(fs)
            c = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            scaled = GridFn(fs[0].d, fs[0].m, [c * v for v in fs[0].values])
            assert ratio([scaled] + fs[1:]) == before

    def test_trivial_average_bound(self, rng):
        # max >= average: ratio >= 1/(k+1)^d on {0,1}^d
        for _ in range(50):
            d = rng.randint(1, 3)
            k = rng.randint(2, 4)
            fs = [random_exact_gridfn(rng, d) for _ in range(k)]
            assert ratio(fs) >= Fraction(1, (k + 1) ** d)


class TestProductFunction:
    def test_two_axes(self):
        F = product_function([g1(2, 1), g1(2, 1)])
        assert F.d == 2
        assert F.values == (4, 2, 2, 1)

    def test_single_axis(self):
        assert product_function([g1(1, 1)]).values == (1, 1)

    def test_delta_product(self):
        F = product_function([g1(1, 0), g1(0, 1)])
        assert F[(0, 1)] == 1
        assert sum(F.values) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_function([])

    def test_mismatched_m_rejected(self):
        with pytest.raises(ValueError):
            product_function([g1(1, 1), GridFn(1, 2, (1, 1, 1))])

    def test_tensor_factorization(self, rng):
        # conv of products == product of per-axis convs, so the ratio splits
        for _ in range(10):
            d, k = 2, rng.randint(2, 3)
            axes = [[random_exact_gridfn(rng, 1) for _ in range(d)] for _ in range(k)]
            fs = [product_function(a) for a in axes]
            per_axis = [convolve_many([axes[i][t] for i in range(k)]) for t in range(d)]
            assert convolve_many(fs).values == product_function(per_axis).values
            assert ratio(fs) == math.prod(
                ratio([axes[i][t] for i in range(k)]) for t in range(d)
            )


@pytest.mark.parametrize("call,error,message", [
    (lambda: GridFn(1, 1, (1, "2")), TypeError, "must be int, Fraction or float, got str"),
    (lambda: GridFn(1, -1, ()), ValueError, "side degree must be >= 0, got -1"),
    (lambda: GridFn(2, 1, (1, 2, 3, 4))[(0, 2)], IndexError, r"coordinate 2 outside \{0,...,1\}"),
    (lambda: GridFn(1, 2, (1, 2, 3))[-1], IndexError, r"coordinate -1 outside \{0,...,2\}"),
    (lambda: product_function([g1(1, 1), GridFn(2, 1, (1, 1, 1, 1))]), DimensionMismatch,
     "axis 1 has d=2, expected 1"),
], ids=["non-numeric", "negative-m", "index", "int-index", "product-axis-d"])
def test_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
