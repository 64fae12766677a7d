import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from convmax import gridfn, sidon
from convmax.cli import run
from convmax.errors import MemoryCapExceeded
from convmax.gridfn import convolve_many
from convmax.sidon import (
    CubeSet,
    enumerate_verify,
    g_sidon_size_cap,
    max_size_g_sidon,
    representation_counts,
    verify_bound,
)

from conftest import (
    ODD_K_COUNTEREXAMPLE,
    SIDON_CONSTANTS,
    brute_first_g_sidon,
    brute_max_count,
    brute_sampled_subsets,
    brute_sidon_violations,
    plain_sweep,
)


def full_cube(d):
    return CubeSet(d, range(2**d))


class TestCubeSet:
    def test_mask_point_convention(self):
        A = CubeSet(2, [2])  # binary 10: first coordinate 1, second 0
        assert A.points() == [(1, 0)]

    def test_from_points_roundtrip(self):
        pts = [(0, 1, 1), (1, 0, 0)]
        A = CubeSet.from_points(3, pts)
        assert A.points() == sorted(pts)

    def test_from_points_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="coordinates"):
            CubeSet.from_points(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="coordinates"):
            CubeSet.from_points(3, [(0, 0, 1), (1, 1)])

    def test_indicator_flat_index(self):
        A = CubeSet(2, [0, 3])
        assert A.indicator().values == (1, 0, 0, 1)

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError):
            CubeSet(2, [4])

    def test_serialize_parse_roundtrip(self):
        A = CubeSet.from_points(3, [(0, 0, 1), (1, 1, 0), (1, 0, 1)])
        assert CubeSet.parse(A.serialize()).members == A.members

    def test_parse_comments(self):
        B = CubeSet.parse("# header\n01\n10\n")
        assert B.points() == [(0, 1), (1, 0)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CubeSet.parse("0X\n")
        with pytest.raises(ValueError):
            CubeSet.parse("# only comments\n")


class TestRepresentationCounts:
    def test_pair_d1(self):
        counts = representation_counts(full_cube(1), 2)
        assert counts == {(0,): 1, (1,): 2, (2,): 1}

    def test_full_cube_k3_peak(self):
        for d in (1, 2):
            counts = representation_counts(full_cube(d), 3)
            assert max(counts.values()) == 3**d

    def test_singleton(self):
        counts = representation_counts(CubeSet(2, [1]), 4)
        assert counts == {(0, 4): 1}

    def test_total_is_size_to_the_k(self):
        A = CubeSet.from_points(3, [(0, 0, 0), (0, 1, 1), (1, 1, 0)])
        counts = representation_counts(A, 3)
        assert sum(counts.values()) == 3**3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representation_counts(CubeSet(1, []), 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_gridfn_route(self, d, k):
        # every nonempty subset against the Fraction GridFn convolution
        for subset_mask in range(1, 2 ** 2**d):
            A = CubeSet(d, [p for p in range(2**d) if subset_mask >> p & 1])
            conv = convolve_many([A.indicator()] * k)
            expected = {p: v for p, v in zip(conv.points(), conv.values) if v}
            assert representation_counts(A, k) == expected
            rep = verify_bound(A, k)
            assert rep.max_count == max(expected.values())
            assert rep.argmax_points == sorted(p for p, v in expected.items()
                                               if v == rep.max_count)


def packed_engine(d, k, n):
    return sidon._PackedCounts(gridfn._codes(d, 1, k + 1), k, n)


def oracle_counts(d, k, members):
    """P_k of ``members`` from the Fraction ``GridFn`` convolution, in code order."""
    if not members:
        return [0] * (k + 1) ** d
    return list(convolve_many([CubeSet(d, members).indicator()] * k).values)


def fields_above(counts, t):
    """(code, count) of the counts above t, in code order."""
    return [(c, n) for c, n in enumerate(counts) if n > t]


def add_fold(engine, members):
    """P_k of ``members`` added one by one to the empty state."""
    counts = engine.empty
    for p in members:
        counts = engine.add(counts, engine.codes[p])
    return counts[-1]


class TestRunningCounts:
    """The packed running-count engine against the Fraction ``GridFn`` convolution of the set."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_random_add_undo_matches_fold(self, k):
        # states are immutable, so an undo pops back to the parent's state, which
        # ``remove`` rebuilds exactly from the child
        rng = random.Random(7919 * k)
        for d in (1, 2, 3, 4):
            engine = packed_engine(d, k, 2**d)
            members, states = [], [engine.empty]
            for _ in range(12 * d):
                absent = [p for p in range(2**d) if p not in members]
                if absent and (not members or rng.random() < 0.6):
                    p = rng.choice(absent)
                    states.append(engine.add(states[-1], engine.codes[p]))
                    members.append(p)
                else:
                    p = members.pop()
                    assert engine.remove(states[-1], engine.codes[p]) == states[-2]
                    states.pop()
                expected = oracle_counts(d, k, members)
                top = states[-1][-1]
                assert engine.fields_above(top, 0) == fields_above(expected, 0)
                assert engine.peak(top) == max(expected)
                if members:
                    assert engine.fields_above(top, max(expected) - 1) == fields_above(
                        expected, max(expected) - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_remove_any_member_matches_fold(self, k):
        # ``remove`` reads only the state it is given, so any member, not just the
        # last one added, comes out to the state of the remaining set
        rng = random.Random(104729 * k)
        for d in (1, 2, 3, 4):
            engine = packed_engine(d, k, 2**d)

            def state(members):
                counts = engine.empty
                for p in members:
                    counts = engine.add(counts, engine.codes[p])
                return counts

            for _ in range(6):
                members = rng.sample(range(2**d), rng.randint(1, 2**d))
                full = state(members)
                for p in members:
                    rest = [q for q in members if q != p]
                    out = engine.remove(full, engine.codes[p])
                    assert out == state(rest)
                    assert engine.fields_above(out[-1], 0) == fields_above(
                        oracle_counts(d, k, rest), 0)

    def test_exhaustive_add_counts(self, monkeypatch):
        # the sweep folds the least set of each symmetry class once and adds no
        # point; the search walks each surviving prefix that holds its first point once
        calls = {"add": 0, "fold": 0}
        for name in calls:
            def counted(self, *args, name=name, method=getattr(sidon._PackedCounts, name)):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(sidon._PackedCounts, name, counted)
        for d, classes in zip((1, 2, 3, 4), (2, 5, 21, 401)):
            calls.update(add=0, fold=0)
            summary = enumerate_verify(d, 2)
            assert summary.orbits == classes
            assert calls == {"add": 0, "fold": classes}
        assert summary.min_slack == Fraction(578, 6561)
        calls.update(add=0, fold=0)
        res = max_size_g_sidon(4, 2, 2)
        assert res.best_size == 7
        assert calls == {"add": res.nodes, "fold": 0}
        assert res.nodes == 2400

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_singleton_fills_its_field(self, k):
        # one point: its count 1 = n^k is the largest a w = 2 field holds
        engine = packed_engine(2, k, 1)
        assert engine.w == 2 and engine.limit == 1
        for p, x in enumerate(engine.codes):
            top = engine.fold([p])
            assert engine.fields_above(top, 0) == fields_above(oracle_counts(2, k, [p]), 0)
            assert engine.above(top, 0) == 1 << (2 * k * x + 1)
            assert engine.above(top, 1) == 0
            assert engine.above(top, 10**40) == 0
            assert engine.peak(top) == 1
            assert engine.fields_above(top, 1) == engine.fields_above(top, 10**40) == []

    def test_k1_adjacent_full_fields(self):
        # at k = 1 distinct points count at most 1 each, so n = 1 sizes any set:
        # w = 2, and neighbouring fields both at the limit carry nothing
        engine = packed_engine(3, 1, 1)
        top = engine.fold(range(8))
        assert engine.fields_above(top, 0) == [(c, 1) for c in range(8)]
        assert engine.above(top, 0) == engine.high and engine.above(top, 1) == 0
        assert engine.fields_above(top, 1) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_guard_test_at_every_threshold(self, k):
        rng = random.Random(k)
        engine = packed_engine(3, k, 8)
        assert engine.limit == 2 ** (engine.w - 1) - 1 >= 8**k
        w = engine.w
        for _ in range(4):
            members = sorted(rng.sample(range(8), rng.randint(1, 8)))
            top = engine.fold(members)
            counts = oracle_counts(3, k, members)
            # up to t = limit - 1, the field maximum less one, and past the limit
            for t in list(range(max(counts) + 3)) + [engine.limit - 1, engine.limit,
                                                      engine.limit + 1, 2**200]:
                assert engine.above(top, t) == sum(1 << (c * w + w - 1)
                                                   for c, n in enumerate(counts) if n > t)
                # t > 0 parses only the fields above t; t >= limit finds none
                assert engine.fields_above(top, t) == fields_above(counts, t)
                # a bound no field exceeds bounds the bisection, from the max up
                if t >= max(counts):
                    assert engine.peak(top, t) == max(counts)
            assert engine.peak(top) == max(counts)

    def test_full_count_field_keeps_guard_bit_clear(self):
        # a field at n^k = 2^(w-1) - 1, the largest value below its guard bit
        engine = packed_engine(2, 1, 3)
        assert engine.limit == 3
        top = engine.fold([2, 2, 2])  # one point thrice: a multiset of n = 3 points
        assert engine.fields_above(top, 0) == [(2, 3)]
        assert engine.above(top, 2) == 1 << (2 * 3 + 2)
        assert engine.above(top, 3) == 0
        assert engine.peak(top) == 3 and engine.fields_above(top, 2) == [(2, 3)]
        assert engine.fields_above(top, 3) == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_product_fold_matches_add_fold(self, k):
        # the product fold builds the very ints the one-by-one adds build, on engines
        # sized for the cube and for the set, members in any order
        rng = random.Random(31 * k)
        for d in range(1, 7):
            cube = list(range(2**d))
            for members in [cube] + [rng.sample(cube, rng.randint(1, 2**d)) for _ in range(3)]:
                expected = oracle_counts(d, k, members)
                for n in (2**d, len(members)):
                    engine = packed_engine(d, k, n)
                    top = engine.fold(members)
                    assert top == add_fold(engine, members)
                    assert engine.fields_above(top, 0) == fields_above(expected, 0)
                    assert engine.peak(top) == max(expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_product_fold_at_the_guard_bit(self, d):
        # k = 1 sized for one point: the full cube fills every field to n^k = limit = 1
        engine = packed_engine(d, 1, 1)
        assert engine.limit == 1
        cube = list(range(2**d))
        assert engine.fold(cube) == add_fold(engine, cube) == engine.ones
        # one point n times counts n^k at code k*x; at k = 1 and n = 2^j - 1 that is the limit
        for k, n in ((1, 3), (1, 7), (2, 3), (3, 5)):
            engine = packed_engine(d, k, n)
            members = [2**d - 1] * n
            top = engine.fold(members)
            assert top == add_fold(engine, members) == n**k << k * engine.codes[-1] * engine.w
            assert engine.peak(top) == n**k <= engine.limit
            assert (n**k == engine.limit) == (k == 1)

    def test_fields_match_oracle_d6(self):
        rng = random.Random(6)
        members = sorted(rng.sample(range(64), 23))
        engine = packed_engine(6, 2, len(members))
        top = engine.fold(members)
        expected = oracle_counts(6, 2, members)
        for t in (0, 1, 2, max(expected) - 1, max(expected), engine.limit):
            assert engine.fields_above(top, t) == fields_above(expected, t)
        assert engine.peak(top) == max(expected)


def cube_symmetries(d):
    """The 2^d d! maps of point tuples that permute coordinates, then reflect some."""
    for perm in itertools.permutations(range(d)):
        for flips in itertools.product((0, 1), repeat=d):
            yield lambda x, perm=perm, flips=flips: tuple(x[perm[t]] ^ flips[t] for t in range(d))


def subset_points(d, subset_mask):
    """The point tuples of a subset mask, bit p for the point whose digits spell p."""
    return [tuple(p >> (d - 1 - t) & 1 for t in range(d))
            for p in range(2**d) if subset_mask >> p & 1]


class TestCubeSymmetry:
    """The exhaustive sweep scores one set per class: what it rests on."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_invariant_under_cube_symmetries(self, d, k):
        rng = random.Random(31 * d + k)
        for _ in range(3):
            A = CubeSet(d, rng.sample(range(2**d), rng.randint(1, 2**d)))
            counts = sorted(n for n in oracle_counts(d, k, sorted(A.members)) if n)
            assert sorted(representation_counts(A, k).values()) == counts
            for sym in cube_symmetries(d):
                B = CubeSet.from_points(d, [sym(p) for p in A.points()])
                assert sorted(n for n in oracle_counts(d, k, sorted(B.members)) if n) == counts
                assert sorted(representation_counts(B, k).values()) == counts

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_orbit_is_every_symmetry_image(self, d):
        orbit = sidon._symmetry_orbit(d)
        syms = list(cube_symmetries(d))
        assert len(syms) == 2**d * math.factorial(d)
        if d <= 3:
            masks = range(1, 2 ** 2**d)
        else:
            masks = random.Random(4).sample(range(1, 2**16), 40) + [1, 2**16 - 1]
        classes = set()
        for x in masks:
            points = subset_points(d, x)
            images = {sum(1 << int("".join(map(str, sym(p))), 2) for p in points)
                      for sym in syms}
            assert orbit(x) == images
            classes.add(min(images))
        if d <= 3:
            assert len(classes) == (2, 5, 21)[d - 1]


class TestVerifyBound:
    def test_full_cube_d1_k2(self):
        rep = verify_bound(full_cube(1), 2)
        assert rep.passed
        assert rep.max_count == 2
        assert rep.bound == Fraction(4, 9) * 4
        assert rep.argmax_points == [(1,)]

    def test_full_cube_k3_is_tight(self):
        # C_{3,d} = (3/8)^d and the full cube gives max count 3^d = (3/8)^d 2^{3d}
        for d in (1, 2, 3):
            rep = verify_bound(full_cube(d), 3)
            assert rep.slack == 0
            assert rep.passed

    def test_every_pair_subset_d2_k2(self):
        for a in range(4):
            for b in range(a + 1, 4):
                rep = verify_bound(CubeSet(2, [a, b]), 2)
                assert rep.passed

    def test_to_dict(self):
        d = verify_bound(full_cube(1), 2).to_dict()
        assert d["passed"] and d["max_count"] == 2
        assert d["bound"] == "16/9"

    def test_five_point_sidon_set_beats_tensor_power_bound(self):
        # frozen counterexample: a 5-element Sidon set in {0,1}^3 has max
        # ordered pair count 2, below (4/9)^3 * 25; the even-k tensor-power
        # bound is genuinely false in dimension 3
        A = CubeSet.from_points(3, [(0, 0, 0), (0, 0, 1), (0, 1, 1),
                                    (1, 0, 1), (1, 1, 0)])
        rep = verify_bound(A, 2)
        assert rep.max_count == 2
        assert rep.bound == Fraction(1600, 729)
        assert not rep.passed
        assert rep.slack < 0

    def test_twelve_point_set_beats_odd_k_bound(self):
        # frozen counterexample: the odd-k tensor-power bound fails on 0/1 indicators too
        A = CubeSet.parse("\n".join(ODD_K_COUNTEREXAMPLE))
        rep = verify_bound(A, 3)
        assert rep.max_count == brute_max_count(ODD_K_COUNTEREXAMPLE, 3) == 12
        assert rep.bound == Fraction(6561, 512) == SIDON_CONSTANTS[3] ** 5 * 12**3
        assert rep.slack == Fraction(-417, 512)
        assert not rep.passed
        assert verify_bound(A, 2).max_count == 2


class TestEnumerateVerify:
    @pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_exhaustive_no_failures(self, d, k):
        summary = enumerate_verify(d, k)
        assert summary.exhaustive
        assert summary.failures == 0
        assert summary.subsets_checked == 2 ** (2**d) - 1

    def test_k3_equality_only_at_full_cube(self):
        for d in (1, 2):
            summary = enumerate_verify(d, 3)
            assert summary.min_slack == 0
            full = ["".join(map(str, p)) for p in full_cube(d).points()]
            assert summary.equality_sets == [full]

    def test_k2_strict(self):
        # even-k constant is irrational relative to the counts, never tight
        assert enumerate_verify(1, 2).min_slack > 0

    def test_d3_k2_has_exactly_eight_counterexamples(self):
        # the five-point Sidon configurations; recomputed and frozen
        summary = enumerate_verify(3, 2)
        assert summary.failures == 8
        assert summary.min_slack < 0

    def test_d3_k3_clean(self):
        summary = enumerate_verify(3, 3)
        assert summary.failures == 0
        assert summary.subsets_checked == 255

    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (3, 1), (1, 4), (2, 4), (3, 4),
                                     (1, 5), (2, 5), (3, 2), (3, 3)])
    def test_matches_brute_force_sweep(self, d, k):
        violating, min_slack, min_sets, equality = brute_sidon_violations(d, k, mask_order=True)
        summary = enumerate_verify(d, k)
        assert summary.subsets_checked == 2 ** 2**d - 1
        assert summary.failures == len(violating)
        assert summary.min_slack == min_slack
        # the first sets in increasing subset-mask order, as a set-by-set sweep meets them
        assert summary.min_slack_sets == min_sets[:sidon.KEEP_SETS]
        assert summary.equality_sets == equality[:sidon.KEEP_SETS]

    def test_defaults_are_the_cli_defaults(self, capsys):
        # --samples 1000 --seed 0: above d = 4 the routes run without arguments
        def payload(*argv):
            run(list(argv))
            return json.loads(capsys.readouterr().out)["payload"]

        assert enumerate_verify(5, 2).to_dict() == payload("sidon", "verify", "--d", "5", "--k", "2")
        assert max_size_g_sidon(5, 2, 2).to_dict() == payload(
            "sidon", "search", "--d", "5", "--k", "2", "--g", "2")

    def test_sampled_mode(self):
        summary = enumerate_verify(5, 2, samples=40, seed=1)
        assert not summary.exhaustive
        assert summary.failures == 0
        assert summary.subsets_checked == 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_matches_sample_stream_oracle(self, seed):
        subsets = brute_sampled_subsets(5, 30, seed)
        bound = SIDON_CONSTANTS[2] ** 5
        slacks = [brute_max_count(A, 2) - bound * len(A) ** 2 for A in subsets]
        summary = enumerate_verify(5, 2, samples=30, seed=seed)
        assert summary.subsets_checked == 30
        assert summary.failures == sum(s < 0 for s in slacks)
        assert summary.min_slack == min(slacks)
        assert summary.min_slack_sets[0] == subsets[slacks.index(min(slacks))]

    @pytest.mark.parametrize("k,min_slack,equality", [(2, Fraction(-3262, 6561), 0),
                                                       (3, Fraction(-417, 512), 1)])
    def test_sampled_failures_and_equality_in_draw_order(self, monkeypatch, k, min_slack,
                                                         equality):
        # the 12-point set fails both bounds; the full cube has slack 0 at k = 3 only,
        # its max count 243 = (3/8)^5 * 32^3
        # bit p of a subset mask is the point with mask p
        A, full = sum(1 << int(p, 2) for p in ODD_K_COUNTEREXAMPLE), 2**32 - 1
        monkeypatch.setattr(sidon, "_sampled_masks", lambda d, samples, seed: iter([A, full, A]))
        summary = enumerate_verify(5, k, samples=3, seed=0)
        assert summary.subsets_checked == 3 and not summary.exhaustive
        assert summary.failures == 2
        assert summary.min_slack == min_slack
        assert summary.min_slack_sets == [ODD_K_COUNTEREXAMPLE] * 2
        cube = ["".join(p) for p in itertools.product("01", repeat=5)]
        assert summary.equality_sets == [cube] * equality

    def test_sampled_masks_are_drawn_lazily(self, monkeypatch):
        # a huge --samples costs no memory: masks are drawn as the sweep reads them
        first = list(sidon._sampled_masks(5, samples=3, seed=0))
        draws = 0
        getrandbits = random.Random.getrandbits

        def counted(self, n):
            nonlocal draws
            draws += 1
            if draws > 5:
                raise AssertionError("masks drawn ahead of the sweep")
            return getrandbits(self, n)

        monkeypatch.setattr(random.Random, "getrandbits", counted)
        masks = sidon._sampled_masks(5, samples=10**9, seed=0)
        assert list(itertools.islice(masks, 3)) == first

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            enumerate_verify(5, 2, samples=samples, seed=1)

    @pytest.mark.parametrize("samples,seed,message", [(0, 1, "samples must be >= 1, got 0"),
                                                      (10, -1, "seed must be >= 0, got -1")],
                             ids=["no-samples", "negative-seed"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_bad_sampling_rejected_at_every_d(self, d, samples, seed, message):
        with pytest.raises(ValueError, match=message):
            enumerate_verify(d, 2, samples=samples, seed=seed)
        with pytest.raises(ValueError, match=message):
            max_size_g_sidon(d, 2, 2, samples=samples, seed=seed)


class TestSweepMatchesPlainSweep:
    """Orbit marking and the capped max-count search change no result of the sweeps."""

    @pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in (1, 2, 3, 4)] + [(4, 2)])
    def test_exhaustive(self, d, k):
        summary = enumerate_verify(d, k)
        assert summary.to_dict() == plain_sweep(d, k)  # failures included
        assert 1 <= summary.peaks <= summary.orbits

    def test_d4_classes_partition_the_subsets(self):
        # marked as the sweep marks them: each class is disjoint from the classes
        # before it, its size divides the group order 2^4 4! = 384, and they cover
        # every nonempty subset
        orbit = sidon._symmetry_orbit(4)
        seen = bytearray(2**16)
        seen[0] = 1
        sizes = []
        rep = seen.find(0)
        while rep >= 0:
            images = orbit(rep)
            assert rep in images and not any(seen[y] for y in images)
            assert 384 % len(images) == 0
            for y in images:
                seen[y] = 1
            sizes.append(len(images))
            rep = seen.find(0, rep + 1)
        assert len(sizes) == enumerate_verify(4, 2).orbits == 401
        assert sum(sizes) == 2**16 - 1

    @pytest.mark.parametrize("d,k,seed", [(5, 2, 0), (5, 3, 1), (5, 4, 2), (6, 2, 3), (6, 3, 4)])
    def test_sampled(self, d, k, seed):
        summary = enumerate_verify(d, k, samples=150, seed=seed)
        assert summary.to_dict() == plain_sweep(d, k, sidon._sampled_masks(d, 150, seed))
        assert 1 <= summary.peaks <= 150

    def test_cap_drops_most_sets(self):
        # most d = 4 classes have slack far above the least: one guard-bit test
        # each, no max-count search
        assert enumerate_verify(4, 2).peaks < 401 // 4

    @pytest.mark.parametrize("k,order,peaks", [(2, "AFA", 2), (2, "FAF", 2), (3, "AFA", 3)])
    def test_only_sets_that_can_change_the_result_are_searched(self, monkeypatch, k, order,
                                                                peaks):
        # A, the 12-point set, fails both bounds; F, the full cube, has slack > 0 at
        # k = 2 and slack 0 (an equality set) at k = 3.  The first set is searched;
        # so is a set tying the least slack, but not one above max(least, 0)
        masks = {"A": sum(1 << int(p, 2) for p in ODD_K_COUNTEREXAMPLE), "F": 2**32 - 1}
        monkeypatch.setattr(sidon, "_sampled_masks",
                            lambda d, samples, seed: iter([masks[c] for c in order]))
        summary = enumerate_verify(5, k, samples=3, seed=0)
        assert summary.peaks == peaks
        assert summary.failures == order.count("A")
        assert summary.to_dict() == plain_sweep(5, k, [masks[c] for c in order])


class TestSizeCap:
    def test_paper_form_odd_k(self):
        cap, form = g_sidon_size_cap(2, 3, 1)
        assert form == "paper-odd-k"
        # g 2^{kd} / binom(3,1)^d = 64/9 -> floor 7 -> cube root 1
        assert cap == 1

    def test_even_k_general_form(self):
        cap, form = g_sidon_size_cap(1, 2, 1)
        assert form == "general"
        assert cap == 1  # floor(9/4) = 2, isqrt = 1

    def test_even_k_high_d_uses_average_cap(self):
        # floor((1 * 3^2))^(1/2) = 3
        cap, form = g_sidon_size_cap(2, 2, 1)
        assert (cap, form) == (3, "trivial-average")

    def test_cap_grows_with_g(self):
        caps = [g_sidon_size_cap(2, 2, g)[0] for g in (1, 4, 16)]
        assert caps == sorted(caps)

    def test_full_cube_respects_cap(self):
        # the full cube is a 3^d-Sidon set of order 3 and saturates the cap
        for d in (1, 2, 3):
            cap, _ = g_sidon_size_cap(d, 3, 3**d)
            assert cap == 2**d

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_int_kth_root_is_exact(self, k):
        rng = random.Random(k)
        radicands = [0, 1, 2, 10**300, 10**400, 3**838]
        radicands += [s**k + e for s in (2, 3, 10**60, 7**95) for e in (-1, 0, 1)]
        radicands += [rng.getrandbits(rng.randint(1, 1330)) for _ in range(200)]
        for n in radicands:
            s = sidon._int_kth_root(n, k)
            assert s**k <= n < (s + 1) ** k

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, d, k):
        with pytest.raises(ValueError):
            g_sidon_size_cap(d, k, 1)


def walk_from_empty(engine, g, order, budget):
    """Reference copy of the g-Sidon walk that starts from the empty state: the first
    largest set in combinations order over ``order`` and the adds it made."""
    codes = engine.codes
    n_points = len(order)
    chosen, best, nodes, counts, i = [], [], 0, engine.empty, 0
    while nodes < budget:
        if len(chosen) + n_points - i <= len(best):
            if not chosen:
                break
            p = chosen.pop()
            counts = engine.remove(counts, codes[order[p]])
            i = p + 1
            continue
        nodes += 1
        grown = engine.add(counts, codes[order[i]])
        if not engine.above(grown[-1], g):
            chosen.append(i)
            counts = grown
            if len(chosen) > len(best):
                best = [order[p] for p in chosen]
        i += 1
    return best, nodes


class TestMaxSizeSearch:
    def test_d1_k2_g1(self):
        res = max_size_g_sidon(1, 2, 1)
        assert res.best_size == 1
        assert res.exhaustive

    def test_d2_k2_g2(self):
        res = max_size_g_sidon(2, 2, 2)
        assert res.best_size == 3
        # result really is a 2-Sidon set of order 2
        assert max(representation_counts(res.best_set, 2).values()) <= 2

    def test_d2_k3_g27_is_full_cube(self):
        res = max_size_g_sidon(2, 3, 27)
        assert res.best_size == 4
        assert res.best_set.members == full_cube(2).members

    def test_size_never_exceeds_cap(self):
        for d in (1, 2):
            for k in (2, 3):
                for g in (1, 2, 5):
                    res = max_size_g_sidon(d, k, g)
                    assert res.best_size <= res.size_cap

    def test_d3_k2_g2_finds_five_points(self):
        # the average-bound cap (7) leaves room for the genuine 5-point set
        res = max_size_g_sidon(3, 2, 2)
        assert res.best_size == 5
        assert res.cap_form == "trivial-average"
        assert max(representation_counts(res.best_set, 2).values()) <= 2

    @pytest.mark.parametrize("d,k,g", [(1, 2, 1), (2, 2, 1), (2, 3, 2), (3, 1, 1), (3, 2, 1),
                                       (3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 3, 4), (3, 3, 9),
                                       (3, 4, 6), (3, 4, 30), (3, 3, 6), (3, 3, 10),
                                       (3, 3, 11)])
    def test_exhaustive_matches_combinations_oracle(self, d, k, g):
        res = max_size_g_sidon(d, k, g)
        assert res.exhaustive
        assert ["".join(map(str, p)) for p in res.best_set.points()] == brute_first_g_sidon(d, k, g)

    @pytest.mark.parametrize("d,g,cfg", [(2, 2, None), (5, 4, {"samples": 60, "seed": 0})])
    def test_set_above_cap_is_returned(self, monkeypatch, d, g, cfg):
        # the search never reads the cap, so a cap that is too small shows as best_size > size_cap
        monkeypatch.setattr(sidon, "g_sidon_size_cap", lambda d, k, g: (1, "paper-odd-k"))
        res = max_size_g_sidon(d, 2, g, **(cfg or {}))
        assert res.size_cap == 1
        assert res.best_size > 1
        assert max(representation_counts(res.best_set, 2).values()) <= g

    def test_bad_g(self):
        with pytest.raises(ValueError):
            max_size_g_sidon(1, 2, 0)

    def test_stochastic_mode(self):
        res = max_size_g_sidon(5, 2, 4, samples=30, seed=3)
        assert not res.exhaustive
        assert res.best_size >= 1
        assert max(representation_counts(res.best_set, 2).values()) <= 4

    @pytest.mark.parametrize("seed", range(5))
    def test_budgeted_walk_d5_finds_ten_points(self, seed):
        # a 12-point 2-Sidon set exists at d = 5; 2000 adds of the seeded walk reach 10
        res = max_size_g_sidon(5, 2, 2, samples=2000, seed=seed)
        assert not res.exhaustive
        assert res.best_size >= 10
        assert brute_max_count(["".join(map(str, p)) for p in res.best_set.points()], 2) <= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_budgeted_walk_d6_finds_fourteen_points(self, seed):
        res = max_size_g_sidon(6, 2, 2, samples=1000, seed=seed)
        assert res.best_size >= 14
        assert max(representation_counts(res.best_set, 2).values()) <= 2

    def test_budgeted_walk_takes_whole_cube_when_every_set_qualifies(self):
        res = max_size_g_sidon(5, 2, 10**6, samples=1000, seed=0)
        assert res.best_set.members == full_cube(5).members
        assert res.exhaustive
        assert res.nodes == 32

    def test_budgeted_walk_finishes_at_g1(self):
        # two distinct points a, b already give the sum a + b two ordered representations
        res = max_size_g_sidon(5, 2, 1, samples=1000, seed=0)
        assert res.exhaustive
        assert res.best_size == 1
        assert res.nodes < 1000

    def test_budget_bounds_nodes_and_size_never_falls(self):
        # a larger budget continues the same seeded walk, so the best set can only grow
        sizes = []
        for budget in (10, 100, 1000):
            res = max_size_g_sidon(5, 2, 2, samples=budget, seed=4)
            assert res.nodes <= budget
            sizes.append(res.best_size)
        assert sizes == sorted(sizes)

    def test_walk_deeper_than_the_recursion_limit(self):
        # k = 1, g = 1: every set qualifies, so the walk chooses all 1024 points in turn
        res = max_size_g_sidon(10, 1, 1, samples=2000, seed=0)
        assert res.best_size == 1024
        assert res.exhaustive
        assert res.nodes == 1024

    @pytest.mark.parametrize("k,g", [(2, 2), (2, 3), (3, 4), (3, 9), (4, 30)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walk_on_shuffled_order_matches_combinations_oracle(self, k, g, seed):
        order = list(range(8))
        random.Random(seed).shuffle(order)
        engine = sidon._PackedCounts(gridfn._codes(3, 1, k + 1), k, 8)
        best, nodes, _ = sidon._largest_g_sidon(engine, g, order, math.inf)
        assert [format(p, "03b") for p in best] == brute_first_g_sidon(3, k, g, order)
        assert nodes > 0

    def test_walk_stops_at_its_budget(self):
        engine = sidon._PackedCounts(gridfn._codes(3, 1, 3), 2, 8)
        order = list(range(8))
        _, unbounded, _ = sidon._largest_g_sidon(engine, 2, order, math.inf)
        for budget in (1, 7, unbounded - 1, unbounded):
            best, nodes, _ = sidon._largest_g_sidon(engine, 2, order, budget)
            assert nodes == budget
            assert max(representation_counts(CubeSet(3, best), 2).values()) <= 2

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_held_point_walk_matches_walk_from_empty(self, d):
        # a reflection moves a largest set onto order[0], and the combinations that
        # hold position 0 come first, so holding it keeps the first largest set
        order = list(range(2**d))
        for k in (2, 3, 4):
            engine = packed_engine(d, k, 2**d)
            for g in range(1, 2 * k + 1):
                ref_best, ref_nodes = walk_from_empty(engine, g, order, math.inf)
                best, nodes, finished = sidon._largest_g_sidon(engine, g, order, math.inf)
                assert best == ref_best and finished
                assert nodes <= ref_nodes

    @pytest.mark.parametrize("k,g", [(2, 2), (2, 4), (3, 2), (3, 6)])
    def test_held_point_walk_matches_on_d5_shuffles(self, k, g):
        engine = packed_engine(5, k, 32)
        for seed in range(3):
            order = list(range(32))
            random.Random(seed).shuffle(order)
            for budget in (10, 100, 1000, 5000):
                ref_best, ref_nodes = walk_from_empty(engine, g, order, budget)
                best, nodes, finished = sidon._largest_g_sidon(engine, g, order, budget)
                assert best == ref_best
                assert nodes <= ref_nodes
                # a walk that finished still finishes; one cut at its budget may now finish
                assert finished or ref_nodes == budget

    def test_walk_finishing_on_its_last_add_is_exhaustive(self):
        # the finished flag, not nodes < budget, says whether the walk ran to the end
        engine = packed_engine(3, 2, 8)
        order = list(range(8))
        _, n, finished = sidon._largest_g_sidon(engine, 2, order, math.inf)
        assert finished and n == 35
        for budget, done in ((n - 1, False), (n, True), (n + 1, True)):
            best, nodes, finished = sidon._largest_g_sidon(engine, 2, order, budget)
            assert (nodes, finished) == (min(budget, n), done)
            assert len(best) == 5 or not done
        # above d = 4 at g = 1 no second point fits: the walk ends after 32 adds
        for samples, done in ((31, False), (32, True), (33, True)):
            res = max_size_g_sidon(5, 2, 1, samples=samples, seed=0)
            assert (res.nodes, res.exhaustive) == (min(samples, 32), done)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rejects_d_below_one_before_any_work(self, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("engine built")

        monkeypatch.setattr(sidon, "_PackedCounts", refuse)
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            max_size_g_sidon(0, k, 1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_stochastic_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            max_size_g_sidon(5, 2, 2, samples=samples, seed=3)


    def test_over_cap_above_d4_rejected_before_shuffling(self, monkeypatch):
        # 3^5 = 243 count entries at d = 5, k = 2: the cap is read before the point order exists
        def refuse(*args):
            raise AssertionError("points shuffled before the cap check")

        monkeypatch.setattr(random.Random, "shuffle", refuse)
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 242)
        with pytest.raises(MemoryCapExceeded, match="243 exceeds cap 242"):
            max_size_g_sidon(5, 2, 2, samples=1, seed=0)

    def test_walk_states_capped_by_point_count(self, monkeypatch):
        # the walk holds one state, so one table of 3^5 = 243 entries is all the cap must allow
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 243)
        res = max_size_g_sidon(5, 2, 10**6, samples=10**9, seed=0)
        assert res.best_size == 32 and res.exhaustive

    def test_walk_memory_does_not_grow_with_depth(self):
        # 512 chosen points of 3^9-field states would hold about 38 MB if kept per depth
        tracemalloc.start()
        try:
            res = max_size_g_sidon(9, 2, 10**6, samples=512, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.best_size == 512
        assert peak < 4 * 2**20


class TestMemoryCap:
    """(k+1)^d = 3^4 = 81 count entries at d = 4, k = 2: a cap of 80 refuses them."""

    CALLS = {
        "enumerate_verify": lambda: enumerate_verify(4, 2),
        "verify_bound": lambda: verify_bound(full_cube(4), 2),
        "representation_counts": lambda: representation_counts(CubeSet(4, [0, 5, 15]), 2),
        "max_size_g_sidon": lambda: max_size_g_sidon(4, 2, 2),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_above_cap_raises(self, monkeypatch, name):
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 80)
        with pytest.raises(MemoryCapExceeded, match="81 exceeds cap 80"):
            self.CALLS[name]()

    @pytest.mark.parametrize("name", CALLS)
    def test_at_cap_runs(self, monkeypatch, name):
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 81)
        self.CALLS[name]()


@pytest.mark.parametrize("call,message", [
    (lambda: CubeSet(0, []), "dimension must be >= 1, got 0"),
    (lambda: CubeSet.from_points(2, [(0, 2)]), r"coordinate 2 outside \{0,1\}"),
    (lambda: CubeSet.parse("01\n011\n"), "inconsistent point dimensions"),
    (lambda: representation_counts(full_cube(2), 0), "k must be >= 1, got 0"),
    (lambda: enumerate_verify(2, 0), "k must be >= 1, got 0"),
    (lambda: sidon._int_kth_root(-1, 2), "negative radicand"),
], ids=["cube-d", "coordinate-2", "mixed-lengths", "counts-k", "sweep-k", "negative-root"])
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
