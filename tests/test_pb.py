import random
from fractions import Fraction

import pytest

from convmax.errors import BoundaryParameter, UnimodalityViolation, ZeroDenominator
from convmax.gridfn import GridFn, convolve_many
from convmax.pb import (
    PBDist,
    _pmf_values,
    check_newton_differences,
    check_ultra_log_concave,
    differences,
    intersection_point,
    lagrange_residuals,
    likelihood_ratio,
    likelihood_ratios,
    mobius_ratio,
    partial_derivative,
    pb_mode,
    pb_pmf,
)

from conftest import brute_lagrange_residuals, brute_pb_pmf


def rand_exact_p(rng, k):
    return tuple(Fraction(rng.randint(1, 19), 20) for _ in range(k))


HALF3 = (Fraction(1, 2),) * 3


class TestPmf:
    def test_fair_coins(self):
        dist = pb_pmf(HALF3)
        assert dist.pmf == (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
        assert dist.is_exact

    def test_mixed(self):
        dist = pb_pmf((Fraction(1, 3), Fraction(1, 2)))
        assert dist.pmf == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    def test_out_of_range_reads_zero(self):
        dist = pb_pmf((Fraction(1, 2),))
        assert dist[-1] == 0
        assert dist[2] == 0

    def test_boundary_params_allowed(self):
        dist = pb_pmf((0, 1, Fraction(1, 2)))
        assert dist.pmf == (0, Fraction(1, 2), Fraction(1, 2), 0)

    def test_rejects_outside_unit(self):
        with pytest.raises(ValueError):
            pb_pmf((Fraction(3, 2),))
        with pytest.raises(ValueError):
            pb_pmf(())

    def test_matches_pattern_enumeration(self, rng):
        for _ in range(40):
            k = rng.randint(1, 7)
            p = rand_exact_p(rng, k)
            assert list(pb_pmf(p).pmf) == brute_pb_pmf(p)

    def test_matches_grid_convolution(self, rng):
        # second route: each Bernoulli is a GridFn on {0,1}
        for _ in range(40):
            k = rng.randint(1, 6)
            p = rand_exact_p(rng, k)
            factors = [GridFn(1, 1, (1 - pj, pj)) for pj in p]
            assert convolve_many(factors).values == pb_pmf(p).pmf

    def test_normalizes_exactly(self, rng):
        for _ in range(25):
            p = rand_exact_p(rng, rng.randint(1, 9))
            assert sum(pb_pmf(p).pmf) == 1

    def test_float_mode(self):
        pmf = pb_pmf((0.5, 0.5)).pmf
        assert pmf == pytest.approx((0.25, 0.5, 0.25))


def fraction_recursion(p):
    """The recursion f_i <- (1 - p_j) f_i + p_j f_{i-1}, one Fraction step at a time."""
    f = [Fraction(1)]
    for pj in p:
        f = [(1 - pj) * a + pj * b for a, b in zip([*f, 0], [0, *f])]
    return f


def float_recursion(p):
    """The float recursion in its one fixed operation order."""
    f = [1.0]
    for pj in p:
        q = 1.0 - pj
        f = [q * f[0]] + [q * f[i] + pj * f[i - 1] for i in range(1, len(f))] + [pj * f[-1]]
    return f


class TestIntegerRoute:
    """Exact mode runs on integer numerators; it must match the Fraction recursion."""

    def test_matches_fraction_recursion(self):
        rng = random.Random(23)
        for _ in range(200):
            p = [rng.choice((0, 1, Fraction(0), Fraction(1),
                             Fraction(rng.randint(0, 30), rng.randint(1, 30))))
                 for _ in range(rng.randint(0, 12))]
            p = [min(x, 1) for x in p]
            got = _pmf_values(p)
            assert got == fraction_recursion(p)
            want = Fraction if any(isinstance(x, Fraction) for x in p) else int
            assert all(type(v) is want for v in got)

    def test_all_int_input_gives_ints(self):
        for p in [(), (0,), (1,), (0, 1, 1, 0), (1, 1, 1)]:
            got = _pmf_values(p)
            assert all(type(v) is int for v in got)
            assert got == fraction_recursion(p)

    def test_float_input_unchanged(self):
        rng = random.Random(5)
        for _ in range(50):
            p = [rng.choice((0.0, 1.0, rng.random())) for _ in range(rng.randint(1, 15))]
            assert _pmf_values(p) == float_recursion(p)
        # one float parameter puts the whole vector in float mode
        assert _pmf_values((Fraction(1, 3), 0.5)) == float_recursion((Fraction(1, 3), 0.5))


class TestMode:
    def test_shared_tie_reports_larger(self):
        mode, shared = pb_mode(pb_pmf(HALF3))
        assert (mode, shared) == (2, True)

    def test_unique_mode(self):
        mode, shared = pb_mode(pb_pmf((Fraction(1, 4), Fraction(1, 4))))
        assert (mode, shared) == (0, False)

    def test_tie_at_zero(self):
        # p = (1/3, 1/3): pmf (4/9, 4/9, 1/9), tie reported at the larger index
        mode, shared = pb_mode(pb_pmf((Fraction(1, 3), Fraction(1, 3))))
        assert (mode, shared) == (1, True)

    def test_boundary_zeros_tolerated(self):
        mode, shared = pb_mode(pb_pmf((0, 0, Fraction(1, 3))))
        assert mode == 0 and not shared

    def test_violation_detected(self):
        fake = PBDist(2, (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)), (0, 0))
        with pytest.raises(UnimodalityViolation):
            pb_mode(fake)

    @pytest.mark.parametrize("pmf,message", [
        ((Fraction(1, 8), Fraction(1, 2), Fraction(1, 8), Fraction(1, 4)),
         "fall violated at 2: 1/8 < 1/4"),
        ((Fraction(1, 8), Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)),
         "interior tie at 2 above the mode"),
        ((0.125, 0.5, 0.125, 0.25), "fall violated at 2: 0.125 < 0.25"),
    ])
    def test_violation_after_the_mode(self, pmf, message):
        # the mode is index 1; the chain breaks on its falling side
        with pytest.raises(UnimodalityViolation) as err:
            pb_mode(PBDist(3, pmf, (Fraction(1, 2),) * 3))
        assert str(err.value) == message

    def test_float_tie_is_relative(self):
        # entries below 1e-309 tie only when relatively close; two zeros still tie
        assert pb_mode(PBDist(3, (0.0, 0.0, 1e-320, 1.0), (0.5,) * 3)) == (3, False)
        with pytest.raises(UnimodalityViolation, match="interior tie at 1"):
            pb_mode(PBDist(3, (0.0, 1e-320, 1e-320, 1.0), (0.5,) * 3))
        dist = pb_pmf([0.5] * 1100)
        assert dist.pmf[2] == 0.0 < dist.pmf[3] < dist.pmf[4] < 1e-309
        assert pb_mode(dist) == (550, False)

    def test_fuzz_unimodal(self, rng):
        for _ in range(150):
            k = rng.randint(1, 10)
            dist = pb_pmf(rand_exact_p(rng, k))
            mode, _ = pb_mode(dist)  # must not raise
            assert dist.pmf[mode] == max(dist.pmf)


class TestLikelihoodRatio:
    def test_value(self):
        assert likelihood_ratio(HALF3, 1) == 3
        assert likelihood_ratio(HALF3, 3) == Fraction(1, 3)
        mixed = likelihood_ratio((Fraction(1, 2), 0.5, 1 - Fraction(1, 2)), 1)
        assert type(mixed) is float and mixed == 3.0

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryParameter):
            likelihood_ratio((0, Fraction(1, 2)), 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            likelihood_ratio(HALF3, 0)

    def test_increasing_in_each_parameter(self, rng):
        for _ in range(40):
            k = rng.randint(2, 7)
            p = list(rand_exact_p(rng, k))
            j = rng.randrange(k)
            i = rng.randint(1, k)
            lo, hi = sorted((Fraction(rng.randint(1, 19), 20), Fraction(rng.randint(1, 19), 20)))
            if lo == hi:
                continue
            p[j] = lo
            r_lo = likelihood_ratio(p, i)
            p[j] = hi
            assert likelihood_ratio(p, i) > r_lo

    def test_ratios_match_per_index(self, rng):
        # one pmf read for all i; None where the per-index call raises
        cases = [rand_exact_p(rng, rng.randint(1, 8)) for _ in range(40)]
        cases += [(0, Fraction(1, 2)), (Fraction(1, 3), 1), (1e-200,) * 3, (0.5, 1e-200, 1e-200)]
        zero_den = 0
        for p in cases:
            expected = []
            for i in range(1, len(p) + 1):
                try:
                    expected.append(likelihood_ratio(p, i))
                except ZeroDenominator:
                    expected.append(None)
                    zero_den += 1
                except BoundaryParameter:
                    expected.append(None)
            got = likelihood_ratios(pb_pmf(p))
            assert got == expected
            assert [type(r) for r in got] == [type(r) for r in expected]
        assert zero_den > 0

    def test_decreasing_in_index(self, rng):
        for _ in range(40):
            k = rng.randint(2, 8)
            p = rand_exact_p(rng, k)
            rs = [likelihood_ratio(p, i) for i in range(1, k + 1)]
            assert all(a > b for a, b in zip(rs, rs[1:]))


class TestDifferences:
    def test_fair_coins(self):
        # zero-padded: D_0 = f_0 and D_4 = -f_3
        d = differences(pb_pmf(HALF3))
        assert d == (Fraction(1, 8), Fraction(1, 4), 0, Fraction(-1, 4), Fraction(-1, 8))

    def test_telescopes(self, rng):
        for _ in range(25):
            dist = pb_pmf(rand_exact_p(rng, rng.randint(1, 8)))
            d = differences(dist)
            assert sum(d[1:-1]) == dist.pmf[-1] - dist.pmf[0]
            assert sum(d) == 0


class TestIntersectionPoint:
    def test_fair_pair(self):
        # with p_rest = (1/2, 1/2) the tie f_2 = f_1 happens at p* = 1/2
        p_star = intersection_point((Fraction(1, 2), Fraction(1, 2)), 2)
        assert p_star == Fraction(1, 2)

    def test_outside_unit_interval_is_none(self):
        assert intersection_point((Fraction(1, 5),), 2) is None

    def test_k2_formula_value(self):
        # raw formula value for the case above is -1/2, hence the None
        f = pb_pmf((Fraction(1, 5),))
        num = f[1] - f[2]
        den = 2 * f[1] - f[2] - f[0]
        assert Fraction(num, den) == Fraction(-1, 2)

    def test_above_one_or_no_tie_is_none(self):
        assert intersection_point((Fraction(4, 5),), 1) is None   # formula value 3/2
        # D_{1,1} = D_{1,2} = -1/3: the formula's denominator vanishes
        assert intersection_point((Fraction(1, 3),), 2) is None

    def test_tie_actually_happens(self, rng):
        for _ in range(60):
            k = rng.randint(2, 7)
            p_rest = rand_exact_p(rng, k - 1)
            i = rng.randint(2, k)
            p_star = intersection_point(p_rest, i)
            if p_star is None:
                continue
            full = pb_pmf(tuple(p_rest) + (p_star,))
            assert full[i] == full[i - 1]

    def test_bad_index(self):
        with pytest.raises(ValueError):
            intersection_point(HALF3, 5)


class TestUltraLogConcavity:
    def test_fair_coins_exact(self):
        rep = check_ultra_log_concave(pb_pmf(HALF3))
        assert rep.ultra_ok and rep.plain_ok
        # binomial pmf saturates ultra log-concavity exactly
        assert all(m == 0 for m in rep.ultra_margins)

    def test_fuzz(self, rng):
        for _ in range(120):
            k = rng.randint(2, 10)
            rep = check_ultra_log_concave(pb_pmf(rand_exact_p(rng, k)))
            assert rep.ultra_ok
            assert rep.plain_ok
            assert rep.worst_ultra >= 0


    @pytest.mark.parametrize("k", range(2, 13))
    def test_float_binomial_within_tolerance(self, k):
        # equality cases whose float margins round below 0, e.g. -1.39e-17 at p = 0.1, k = 5
        for j in range(1, 20):
            rep = check_ultra_log_concave(pb_pmf([j / 20] * k))
            assert rep.ultra_ok and rep.plain_ok
        assert check_ultra_log_concave(pb_pmf([0.1] * 5)).worst_ultra < 0

    def test_float_violation_still_flagged(self):
        rep = check_ultra_log_concave(PBDist(2, (0.5, 0.0, 0.5), (0.5, 0.5)))
        assert not rep.ultra_ok and not rep.plain_ok
        assert rep.worst_ultra == -1.0 and rep.worst_plain == -0.25

    def test_exact_margins_judged_at_zero(self):
        # plain log-concavity holds with equality; the ultra factor 4 fails it
        fake = PBDist(2, (Fraction(1, 3),) * 3, (0, 0))
        rep = check_ultra_log_concave(fake)
        assert rep.plain_ok and not rep.ultra_ok
        assert (rep.worst_plain, rep.worst_ultra) == (0, Fraction(-1, 3))


class TestNewtonDifferences:
    def test_needs_k3(self):
        with pytest.raises(ValueError):
            check_newton_differences(pb_pmf((Fraction(1, 2), Fraction(1, 2))))

    def test_fair_coins(self):
        rep = check_newton_differences(pb_pmf(HALF3))
        assert rep.ok
        # diffs (1/4, 0, -1/4): margin 0 - (9/4)(1/4)(-1/4) = 9/64
        assert rep.margins == (Fraction(9, 64),)

    def test_fuzz_exact(self, rng):
        for _ in range(200):
            k = rng.randint(3, 10)
            rep = check_newton_differences(pb_pmf(rand_exact_p(rng, k)))
            assert rep.ok, (rep.k, rep.worst)

    def test_degree_k_factor_is_false(self, rng):
        # the weaker claim with the degree-k binomial factor fails on real pmfs;
        # witness found by exact search, frozen here
        p = tuple(Fraction(n, 40) for n in (25, 21, 37, 16, 19, 12, 13, 12, 3))
        d = differences(pb_pmf(p))[1:-1]
        k = len(p)
        bad = False
        for i in range(2, k):
            factor = Fraction((i + 1) * (k - i + 1), i * (k - i))
            if d[i - 1] ** 2 < factor * d[i - 2] * d[i]:
                bad = True
        assert bad


class TestPartialDerivative:
    def test_fair_coins(self):
        # d f_{3,1} / d p_0 with the other two fair: f_{2,0} - f_{2,1} = 1/4 - 1/2
        assert partial_derivative(HALF3, 1, 0) == Fraction(-1, 4)

    def test_matches_finite_difference(self, rng):
        for _ in range(50):
            k = rng.randint(2, 7)
            p = [float(x) for x in rand_exact_p(rng, k)]
            i = rng.randint(0, k)
            j = rng.randrange(k)
            h = 1e-6
            up, dn = list(p), list(p)
            up[j] += h
            dn[j] -= h
            fd = (pb_pmf(up)[i] - pb_pmf(dn)[i]) / (2 * h)
            assert partial_derivative(p, i, j) == pytest.approx(fd, abs=1e-8)

    def test_bad_coordinate(self):
        with pytest.raises(IndexError):
            partial_derivative(HALF3, 1, 3)

    def test_needs_two_params(self):
        with pytest.raises(ValueError):
            partial_derivative((Fraction(1, 2),), 0, 0)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_bad_pmf_index(self, i):
        with pytest.raises(ValueError, match=f"pmf index i={i} outside 0..3"):
            partial_derivative(HALF3, i, 0)


class TestLagrangeResidual:
    def test_equal_params_are_stationary(self, rng):
        for _ in range(30):
            k = rng.randint(2, 8)
            q = Fraction(rng.randint(1, 19), 20)
            i = rng.randint(1, k)
            # an i left out of the dict has a vanishing difference, legitimate at symmetric points
            assert lagrange_residuals((q,) * k).get(i, 0) == 0

    def test_unequal_params_generically_nonzero(self):
        res = lagrange_residuals((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))[2]
        assert res > 0

    def test_zero_denominator_leaves_index_out(self):
        # dropping coordinate 1 leaves (1/2,) where D_{1,1} = 0
        res = lagrange_residuals((Fraction(1, 2), Fraction(1, 3)))
        assert res == brute_lagrange_residuals((Fraction(1, 2), Fraction(1, 3)))
        assert 1 not in res
        assert 2 in res

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryParameter):
            lagrange_residuals((0, Fraction(1, 2)))

    def test_single_parameter(self):
        # the pmf of zero trials is (1,), so D_{0,0} = 1, D_{0,1} = -1
        assert lagrange_residuals((Fraction(1, 3),)) == {1: 0}

    def test_matches_brute_force(self, rng):
        for k in range(1, 8):
            for _ in range(6):
                # denominators up to 4 make vanishing differences common
                p = tuple(Fraction(rng.randint(1, b - 1), b)
                          for b in (rng.randint(2, 4) for _ in range(k)))
                assert lagrange_residuals(p) == brute_lagrange_residuals(p)


class TestMobiusRatio:
    def test_matches_difference_ratio_definition(self, rng):
        for _ in range(30):
            k = rng.randint(4, 8)
            p2 = rand_exact_p(rng, k - 2)
            i = rng.randint(2, k - 2)
            f = pb_pmf(p2)
            y = Fraction(rng.randint(0, 10), 10)
            D = lambda j: f[j] - f[j - 1]
            den = y * (D(i - 1) - D(i)) + D(i)
            if den == 0:
                continue
            expected = Fraction(y * (D(i - 2) - D(i - 1)) + D(i - 1), den)
            assert mobius_ratio(p2, i, y) == expected

    def test_injective_on_samples(self, rng):
        # strict Newton rules out geometric differences, so Lambda separates points
        for _ in range(20):
            k = rng.randint(4, 7)
            p2 = rand_exact_p(rng, k - 2)
            i = rng.randint(2, k - 2)
            seen = {}
            try:
                for t in range(7):
                    y = Fraction(t, 6)
                    val = mobius_ratio(p2, i, y)
                    assert val not in seen, (p2, i, y, seen[val])
                    seen[val] = y
            except ZeroDenominator:
                continue

    def test_zero_denominator(self):
        f = pb_pmf((Fraction(1, 2), Fraction(1, 2)))
        # engineer y so the denominator vanishes: y (D1 - D2) + D2 = 0
        D1, D2 = f[1] - f[0], f[2] - f[1]
        y = Fraction(-D2, D1 - D2)
        with pytest.raises(ZeroDenominator):
            mobius_ratio((Fraction(1, 2), Fraction(1, 2)), 2, y)

    @pytest.mark.parametrize("i", [-1, 0, 1, 4])
    def test_bad_index(self, i):
        # valid indices for two parameters are 2..3; a negative one must not wrap
        with pytest.raises(ValueError):
            mobius_ratio((Fraction(1, 3), Fraction(1, 2)), i, Fraction(1, 2))
