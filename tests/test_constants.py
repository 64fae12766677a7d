import math
from fractions import Fraction

import pytest

from convmax import constants, gridfn
from convmax.constants import (
    continuous_upper_bound_m1,
    diagonal_profile,
    envelope_value,
    extremal_function,
    optimal_constant,
    optimal_constant_d,
    verify_sharpness,
)
from convmax.errors import MemoryCapExceeded
from convmax.gridfn import GridFn, ratio

from conftest import random_exact_gridfn


class TestOptimalConstant:
    def test_closed_form_table(self):
        assert optimal_constant(2) == Fraction(4, 9)
        assert optimal_constant(3) == Fraction(3, 8)
        assert optimal_constant(4) == Fraction(216, 625)
        assert optimal_constant(5) == Fraction(5, 16)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            optimal_constant(0)

    def test_odd_k_is_central_binomial(self):
        for k in range(1, 21, 2):
            assert optimal_constant(k) == Fraction(math.comb(k, k // 2), 2**k)

    def test_even_k_correction_below_one(self):
        for k in range(2, 21, 2):
            corr = optimal_constant(k) / Fraction(math.comb(k, k // 2), 2**k)
            assert corr < 1
            assert corr == (1 - Fraction(1, (k + 1) ** 2)) ** (k // 2)

    def test_strictly_decreasing(self):
        vals = [optimal_constant(k) for k in range(2, 33)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_beats_trivial_bound(self):
        for k in range(1, 33):
            assert optimal_constant(k) * (k + 1) >= 1


class TestOptimalConstantD:
    def test_powers(self):
        assert optimal_constant_d(2, 2) == Fraction(16, 81)
        assert optimal_constant_d(3, 1) == Fraction(3, 8)

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            optimal_constant_d(3, 0)


class TestExtremalFunction:
    def test_k2_d1(self):
        assert extremal_function(2, 1).values == (2, 1)

    def test_k3_d1_constant(self):
        assert extremal_function(3, 1).values == (2, 2)

    def test_k4_d2(self):
        assert extremal_function(4, 2).values == (9, 6, 6, 4)

    def test_odd_k_is_constant(self):
        for k in (1, 3, 5, 7):
            f = extremal_function(k, 2)
            assert len(set(f.values)) == 1
            assert f.values[0] == ((k + 1) // 2) ** 2


class TestSharpness:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_examples(self, k, d):
        cert = verify_sharpness(k, d)
        assert cert.passed
        assert cert.lhs == cert.rhs == optimal_constant_d(k, d)

    def test_k4_d1_value(self):
        cert = verify_sharpness(4, 1)
        assert cert.lhs == Fraction(216, 625)

    def test_k3_d2_value(self):
        assert verify_sharpness(3, 2).lhs == Fraction(9, 64)

    def test_budget(self):
        with pytest.raises(ValueError):
            verify_sharpness(65, 1)

    def test_cap_checked_on_the_k_fold_table_first(self, monkeypatch):
        # k = 3, d = 2: the 3-fold table has 4^2 = 16 entries, the factor only 4
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 16)
        assert verify_sharpness(3, 2).passed
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 15)

        def refuse(*args):
            raise AssertionError("the extremal function was built before the cap check")

        monkeypatch.setattr(constants, "extremal_function", refuse)
        with pytest.raises(MemoryCapExceeded, match="16 exceeds cap 15"):
            verify_sharpness(3, 2)


class TestDiagonalProfile:
    def test_k1(self):
        prof = diagonal_profile(1)
        assert prof.envelope_min_value == Fraction(1, 2)
        assert prof.envelope_min_locations == [Fraction(1, 2)]

    def test_k2(self):
        prof = diagonal_profile(2)
        assert prof.envelope_min_value == Fraction(4, 9)
        assert prof.envelope_min_locations == [Fraction(1, 3), Fraction(2, 3)]
        # argmax index 1 on the middle interval [1/3, 2/3]
        assert prof.piece_index == [2, 1, 0]

    def test_k3(self):
        prof = diagonal_profile(3)
        assert prof.envelope_min_value == Fraction(3, 8)
        assert prof.envelope_min_locations == [Fraction(1, 2)]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_min_locations(self, k):
        # the crossing points nearest 1/2: a tied pair for even k, 1/2 itself for odd k
        h = Fraction(k // 2, k + 1)
        expected = [h, h + Fraction(1, k + 1)] if k % 2 == 0 else [Fraction(1, 2)]
        assert diagonal_profile(k).envelope_min_locations == expected

    def test_breakpoints_increasing(self):
        for k in range(1, 10):
            bp = diagonal_profile(k).breakpoints
            assert all(a < b for a, b in zip(bp, bp[1:]))

    def test_piece_index_decrements(self):
        for k in range(1, 10):
            pi = diagonal_profile(k).piece_index
            assert all(a - b == 1 for a, b in zip(pi, pi[1:]))

    def test_min_equals_constant(self):
        for k in range(1, 13):
            assert diagonal_profile(k).envelope_min_value == optimal_constant(k)

    def test_envelope_pointwise_dominates_min(self):
        for k in (2, 3, 4):
            c = optimal_constant(k)
            for t in range(0, 33):
                assert envelope_value(k, Fraction(t, 32)) >= c

    def test_argmax_index_on_intervals(self):
        for k in (2, 3, 5):
            prof = diagonal_profile(k)
            for piece, left in zip(prof.piece_index, prof.breakpoints):
                x = left + Fraction(1, 2 * (k + 1))  # interval midpoint
                vals = [math.comb(k, i) * x ** (k - i) * (1 - x) ** i for i in range(k + 1)]
                assert vals[piece] == max(vals)


class TestContinuousM1:
    def test_values(self):
        assert continuous_upper_bound_m1(2) == Fraction(16, 9)
        assert continuous_upper_bound_m1(3) == Fraction(9, 4)
        assert continuous_upper_bound_m1(5) == Fraction(25, 8)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            continuous_upper_bound_m1(1)


class TestRatioLowerBoundFuzz:
    def test_distinct_factors_d1(self, rng):
        # the one-dimensional bound is a theorem for arbitrary factors
        for _ in range(200):
            k = rng.randint(2, 5)
            fs = [random_exact_gridfn(rng, 1) for _ in range(k)]
            assert ratio(fs) >= optimal_constant(k)

    def test_identical_factors_higher_d(self, rng):
        # the tensor-power bound is a theorem only at d = 1; above it the frozen
        # counterexamples below show it fails, so only the average bound is asserted
        for _ in range(200):
            d = rng.randint(1, 3)
            k = rng.randint(2, 5)
            f = random_exact_gridfn(rng, d)
            r = ratio([f] * k)
            if d == 1:
                assert r >= optimal_constant_d(k, d)
            else:
                assert r >= Fraction(1, (k + 1) ** d)

    def test_distinct_factors_d2_counterexample(self):
        # frozen exact counterexample: two distinct factors on {0,1}^2 whose
        # normalized ratio falls below (4/9)^2, so the tensor-power bound does
        # not extend to independent factors in dimension 2
        f1 = GridFn(2, 1, (Fraction(8, 3), 7, 5, Fraction(6, 5)))
        f2 = GridFn(2, 1, (Fraction(11, 5), Fraction(4, 3), Fraction(1, 2), Fraction(7, 3)))
        r = ratio([f1, f2])
        assert r == Fraction(8563, 45458)
        assert r < optimal_constant_d(2, 2)
        assert r >= Fraction(1, 9)  # the average bound still holds

    def test_distinct_factors_odd_k_d2_counterexample(self):
        # frozen exact counterexample for odd k: three distinct factors on
        # {0,1}^2 whose 8 triple sums are all distinct, so the ratio is 1/8,
        # below (3/8)^2 = 9/64
        h = Fraction(1, 2)
        fs = [GridFn(2, 1, (h, 0, 0, h)), GridFn(2, 1, (h, 0, h, 0)), GridFn(2, 1, (0, h, h, 0))]
        r = ratio(fs)
        assert r == Fraction(1, 8)
        assert r < optimal_constant_d(3, 2) == Fraction(9, 64)
        assert r >= Fraction(1, 16)  # the average bound still holds

    def test_identical_factors_odd_k_d3_counterexample(self):
        # frozen exact counterexample for odd k with one factor used three
        # times: f proportional to 1 + [x_1 + x_2 + x_3 odd] on {0,1}^3 has
        # ratio 5/96, below (3/8)^3 = 27/512
        f = GridFn(3, 1, tuple(Fraction(v, 12) for v in (1, 2, 2, 1, 2, 1, 1, 2)))
        r = ratio([f] * 3)
        assert r == Fraction(5, 96)
        assert r < optimal_constant_d(3, 3) == Fraction(27, 512)
        assert r >= Fraction(1, 64)  # the average bound still holds


@pytest.mark.parametrize("call,message", [
    (lambda: extremal_function(0, 2), "k must be >= 1, got 0"),
    (lambda: extremal_function(2, 0), "d must be >= 1, got 0"),
    (lambda: diagonal_profile(0), "k must be >= 1, got 0"),
], ids=["extremal-k", "extremal-d", "profile-k"])
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
