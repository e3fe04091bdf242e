"""Exact sum-of-uniforms distributions, inequality checks, collision probabilities."""

from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from sumlabel import (TooLarge, exact_collision_probability, iter_sum_pmfs,
                      merge_inequality_check, peak_probability_margin, sum_pmf)
from sumlabel.uniform_sums import Pmf

from helpers import (binomial_tail_le_one, pmf_checks_oracle, sum_pmf_family_oracle,
                     sum_pmf_oracle)


class TestSumPmf:
    def test_single_uniform(self):
        pmf = sum_pmf(1, 4)
        assert pmf.probabilities == (Fraction(1, 4),) * 4
        assert pmf.support_base == 1 and pmf.support_max == 4

    def test_two_coins(self):
        pmf = sum_pmf(2, 2)
        assert pmf.prob(2) == Fraction(1, 4)
        assert pmf.prob(3) == Fraction(1, 2)
        assert pmf.prob(4) == Fraction(1, 4)

    def test_three_dice(self):
        # 27 of the 216 ordered triples from [6]^3 sum to 10
        count = sum(1 for t in product(range(1, 7), repeat=3) if sum(t) == 10)
        assert count == 27
        assert sum_pmf(3, 6).prob(10) == Fraction(27, 216)

    def test_normalization_is_exact(self):
        for ell, n in [(1, 1), (4, 3), (7, 9), (20, 4)]:
            pmf = sum_pmf(ell, n)
            assert sum(pmf.counts) == pmf.denominator
            assert sum(pmf.probabilities) == 1

    def test_matches_enumeration(self):
        for ell, n in [(2, 3), (3, 3), (4, 2), (3, 4)]:
            pmf = sum_pmf(ell, n)
            for t in range(pmf.support_base, pmf.support_max + 1):
                count = sum(1 for tup in product(range(1, n + 1), repeat=ell) if sum(tup) == t)
                assert pmf.prob(t) == Fraction(count, n**ell)

    def test_symmetry_and_unimodality_small_grid(self):
        for n in range(1, 13):
            for pmf in iter_sum_pmfs(n, 12):
                c = pmf.counts
                mean2 = pmf.summands * (pmf.n_values + 1)
                for i, t in enumerate(range(pmf.support_base, pmf.support_max + 1)):
                    assert c[i] == c[mean2 - t - pmf.support_base]
                    if 2 * t >= mean2 and t < pmf.support_max:
                        assert c[i] >= c[i + 1]

    def test_single_coordinate_bound(self):
        for ell, n in [(1, 5), (3, 5), (8, 4), (13, 7)]:
            _, peak = sum_pmf(ell, n).max_point()
            assert peak <= Fraction(1, n)

    def test_guard(self):
        with pytest.raises(TooLarge):
            sum_pmf(10**6, 10**4)

    @pytest.mark.parametrize("summands,n", [(0, 3), (2, 0), (-1, -1)])
    def test_non_positive_shape_rejected(self, summands, n):
        message = "summands and n_values must be positive"
        with pytest.raises(ValueError, match=message):
            sum_pmf(summands, n)
        with pytest.raises(ValueError, match=message):
            next(iter_sum_pmfs(n, summands))
        with pytest.raises(ValueError, match=message):
            Pmf(summands, n, (1,))

    def test_family_iterator_matches_direct(self):
        for n in (2, 6):
            for pmf in iter_sum_pmfs(n, 8):
                direct = sum_pmf(pmf.summands, n)
                assert pmf.counts == direct.counts


class TestAgainstSlidingWindowOracle:
    """The half-support prefix-sum convolution against the full-length
    sliding window it replaced: odd and even support lengths, n = 1 and
    a single summand all occur below."""

    def test_every_small_shape(self):
        for n in range(1, 21):
            for ell, expected in enumerate(sum_pmf_family_oracle(n, 40), start=1):
                assert sum_pmf(ell, n).counts == expected, (ell, n)

    def test_benchmark_shape(self):
        assert sum_pmf(400, 50).counts == sum_pmf_oracle(400, 50)

    def test_families(self):
        for n in range(1, 61):
            got = [pmf.counts for pmf in iter_sum_pmfs(n, 50)]
            assert got == list(sum_pmf_family_oracle(n, 50)), n


class TestCoefficientRecurrence:
    """``sum_pmf``'s three-term coefficient recurrence against a closed form
    and against the convolution that ``iter_sum_pmfs`` runs."""

    def test_two_values_are_binomial(self):
        for ell in range(1, 301):
            assert sum_pmf(ell, 2).counts == tuple(comb(ell, k) for k in range(ell + 1)), ell

    def test_agrees_with_the_family_convolution(self):
        for n in range(1, 31):
            for pmf in iter_sum_pmfs(n, 60):
                assert sum_pmf(pmf.summands, n).counts == pmf.counts, (pmf.summands, n)

    def test_one_value(self):
        for ell in (1, 2, 3, 50, 1000):
            assert sum_pmf(ell, 1).counts == (1,)

    def test_one_summand(self):
        for n in (1, 2, 3, 4, 7, 1000):
            assert sum_pmf(1, n).counts == (1,) * n

    @pytest.mark.parametrize("ell,n", [(1000, 50), (100, 5000)])
    def test_large_shapes_are_fast_and_exact(self, ell, n):
        start = perf_counter()
        pmf = sum_pmf(ell, n)
        assert perf_counter() - start < 2.0
        total = n**ell
        assert sum(pmf.counts) == total
        # with d = 2t - ell (n + 1): E[d] = 0 and E[d**2] = 4 ell (n**2 - 1) / 12
        d = range(-ell * (n - 1), ell * (n - 1) + 1, 2)
        assert sum(map(mul, pmf.counts, d)) == 0
        assert 3 * sum(c * x * x for c, x in zip(pmf.counts, d)) == total * ell * (n * n - 1)


def check_outcome(make, summands, n, counts) -> str | None:
    """None when ``make`` accepts the counts, else its ValueError's text."""
    try:
        make(summands, n, counts)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def mutated_pmf_counts(draw):
    """(summands, n_values, counts): true counts of odd or even length,
    n_values = 1 included, after up to three edits: one cell +-1, a
    swapped pair, negated ends, a mirrored edit that keeps symmetry, two
    mirrored pairs swapped (keeping the total too), or small arbitrary
    counts."""
    n = draw(st.integers(1, 6), label="n_values")
    summands = draw(st.integers(1, 7), label="summands")
    c = list(sum_pmf(summands, n).counts)
    last = len(c) - 1
    cell = st.integers(0, last)
    for kind in draw(st.lists(st.sampled_from(["cell", "swap", "negate_end", "mirrored",
                                               "mirrored_swap", "arbitrary"]), max_size=3)):
        if kind == "cell":
            c[draw(cell)] += draw(st.sampled_from([-1, 1]))
        elif kind == "swap":
            i, j = draw(cell), draw(cell)
            c[i], c[j] = c[j], c[i]
        elif kind == "negate_end":
            for i in draw(st.sampled_from([(0,), (last,), (0, last)])):
                c[i] = -c[i]
        elif kind == "mirrored":
            # one edit and its mirror image keep the counts symmetric
            i, d = draw(cell), draw(st.integers(-3, 3))
            c[i] += d
            if last - i != i:
                c[last - i] += d
        elif kind == "mirrored_swap":
            # swapping two mirrored pairs keeps the total as well
            i, j = draw(cell), draw(cell)
            if 2 * i != last and 2 * j != last:
                c[i], c[j] = c[j], c[i]
                c[last - i], c[last - j] = c[last - j], c[last - i]
        else:
            c = draw(st.lists(st.integers(-2, 6), min_size=len(c), max_size=len(c)))
    return summands, n, tuple(c)


class TestPmfValidation:
    # two summands on [3]: support length 5, total 9, true counts (1, 2, 3, 2, 1)
    @pytest.mark.parametrize("counts,message", [
        ((1, 2, 3, 2), "length does not match"),
        # symmetric and unimodal: only the ends are negative
        ((-1, 2, 7, 2, -1), "negative count"),
        ((1, 2, 2, 2, 1), "do not total"),
        ((1, 2, 3, 3, 0), "not symmetric"),
        # only the pair ending at the middle cell decreases
        ((1, 3, 1, 3, 1), "not unimodal"),
        # negative and not unimodal: unimodality is checked before the sign
        ((2, -1, 7, -1, 2), "not unimodal"),
    ], ids=["length", "negative", "total", "asymmetric", "non_unimodal",
            "negative_non_unimodal"])
    def test_rejects(self, counts, message):
        with pytest.raises(ValueError, match=message):
            Pmf(2, 3, counts)

    def test_non_unimodal_even_length(self):
        # three summands on [2]: length 4, total 8; the dip sits before the middle pair
        with pytest.raises(ValueError, match="not unimodal"):
            Pmf(3, 2, (3, 1, 1, 3))

    def test_accepts_true_counts(self):
        assert Pmf(2, 3, (1, 2, 3, 2, 1)).denominator == 9
        assert Pmf(3, 2, (1, 3, 3, 1)).max_point() == (4, Fraction(3, 8))

    @pytest.mark.parametrize("summands,n,counts,message", [
        # symmetric, non-decreasing half, total 9: only the sign is wrong
        (2, 3, (-1, 3, 5, 3, -1), "negative count"),
        # flat counts are accepted
        (3, 2, (2, 2, 2, 2), None),
        # even length, symmetric and non-decreasing, total 6 of 8
        (3, 2, (1, 2, 2, 1), "do not total"),
        # odd length, total 3 of 4; twice the half-sum with the middle is 4
        (2, 2, (1, 1, 1), "do not total"),
    ], ids=["negative_ends", "flat", "even_total", "odd_total"])
    def test_pinned_cases_match_oracle(self, summands, n, counts, message):
        expected = check_outcome(pmf_checks_oracle, summands, n, counts)
        assert check_outcome(Pmf, summands, n, counts) == expected
        if message is None:
            assert expected is None
        else:
            assert message in expected

    @settings(max_examples=600, deadline=None)
    @given(mutated_pmf_counts())
    def test_matches_oracle(self, case):
        assert check_outcome(Pmf, *case) == check_outcome(pmf_checks_oracle, *case)



class TestPeakMargin:
    def test_small_margin_at_zero_constant(self):
        # e**0 = 1, so the margin is peak * N / 5 <= 1/5
        assert peak_probability_margin(3, 7, 0.0) <= 0.2

    # at 1e308, 4.0 * c itself overflows to inf, and exp(inf) does not raise
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf"), 1000.0, 1e308])
    def test_rejects_non_finite_and_overflowing_constants(self, c):
        with pytest.raises(ValueError, match="finite|overflows"):
            peak_probability_margin(1, 5, c)

    def test_peak_location_is_the_mean(self):
        for ell, n in [(2, 5), (5, 4), (10, 3)]:
            pmf = sum_pmf(2 * ell, n)
            t, _ = pmf.max_point()
            assert t == ell * (n + 1)


class TestWindow:
    def test_full_support(self):
        assert sum_pmf(5, 6).window(0, 10**9) == 1

    def test_empty_tail(self):
        # support of 8 summands on [10] is [8, 80]; both tails past 40 are empty
        pmf = sum_pmf(8, 10)
        tail = pmf.window(pmf.support_base, 4) + pmf.window(84, pmf.support_max)
        assert tail == 0

    def test_concentration_example(self):
        # 27 summands on [5]: mass beyond 45 from the mean 81 is below 1/27
        pmf = sum_pmf(27, 5)
        tail = pmf.window(pmf.support_base, 36) + pmf.window(126, pmf.support_max)
        assert 0 < tail <= Fraction(1, 27)


class TestMergeInequalities:
    def test_reference_values_at_half(self):
        g = lambda t: binomial_tail_le_one(Fraction(1, 2), t)
        assert g(2) == Fraction(3, 4)
        assert g(3) == Fraction(1, 2)
        assert g(4) == Fraction(5, 16)
        assert g(2) * g(4) <= g(3) ** 2
        assert merge_inequality_check(Fraction(1, 2), 2, 4) == (True, True)

    def test_adjacent_case_is_log_concavity(self):
        for k in range(2, 12):
            conv1, _ = merge_inequality_check(Fraction(3, 10), k, k + 2)
            g = lambda t: binomial_tail_le_one(Fraction(3, 10), t)
            assert conv1 == (g(k) * g(k + 2) <= g(k + 1) ** 2)

    def test_decrease_at_nine_tenths(self):
        _, decrease = merge_inequality_check(Fraction(9, 10), 2, 10)
        g = lambda t: binomial_tail_le_one(Fraction(9, 10), t)
        assert decrease and g(10) ** 2 <= g(2) ** 10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            merge_inequality_check(Fraction(3, 2), 2, 4)
        with pytest.raises(ValueError):
            merge_inequality_check(Fraction(1, 2), 1, 4)
        with pytest.raises(ValueError):
            merge_inequality_check(Fraction(1, 2), 3, 4)

    @settings(max_examples=60)
    @given(num=st.integers(1, 99), t1=st.integers(2, 40), gap=st.integers(2, 40))
    def test_agrees_with_literal_formula(self, num, t1, gap):
        p = Fraction(num, 100)
        t2 = t1 + gap
        conv1, decrease = merge_inequality_check(p, t1, t2)
        g = binomial_tail_le_one
        assert conv1 == (g(p, t1) * g(p, t2) <= g(p, t1 + 1) * g(p, t2 - 1))
        assert decrease == (g(p, t2) ** 2 <= g(p, 2) ** t2)

    @settings(max_examples=80)
    @given(p=st.fractions(0, 1, max_denominator=10**6).filter(lambda p: 0 < p < 1),
           t1=st.integers(2, 60), gap=st.integers(2, 60))
    def test_conv1_always_holds(self, p, t1, gap):
        # g(t1 + 1) g(t2 - 1) - g(t1) g(t2) = (1 - p)**(t1 + t2 - 2) p**2 (t2 - t1 - 1) > 0
        t2 = t1 + gap
        g = binomial_tail_le_one
        assert merge_inequality_check(p, t1, t2).conv1_holds
        assert (g(p, t1 + 1) * g(p, t2 - 1) - g(p, t1) * g(p, t2)
                == (1 - p) ** (t1 + t2 - 2) * p**2 * (t2 - t1 - 1))


class TestCollisionProbability:
    def test_two_singletons_tight(self):
        assert exact_collision_probability({0}, {1}, 2) == Fraction(1, 2)

    def test_nested_sets_never_collide(self):
        assert exact_collision_probability({0}, {0, 1}, 7) == 0

    def test_pair_versus_singleton(self):
        assert exact_collision_probability({0, 1}, {2}, 3) == Fraction(3, 27)

    def test_equal_sets_rejected(self):
        with pytest.raises(ValueError):
            exact_collision_probability({0, 1}, {1, 0}, 5)

    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_value_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_values must be positive"):
            exact_collision_probability({0}, {1}, n)

    def test_guard(self):
        # 8 uniforms on [10**5] have a support past SUPPORT_GUARD
        with pytest.raises(TooLarge):
            exact_collision_probability({0, 1, 2, 3}, {4, 5, 6, 7}, 10**5)

    def test_large_label_space_within_pmf_guard(self):
        # 100**8 labelings, but only sum_pmf(8, 100) is built: two disjoint
        # 4-sets collide with probability sum_t Pr[S_4 = t]**2
        counts = sum_pmf_oracle(4, 100)
        expected = Fraction(sum(c * c for c in counts), 100**8)
        assert exact_collision_probability({0, 1, 2, 3}, {4, 5, 6, 7}, 100) == expected
        assert exact_collision_probability({0}, {0, 1}, 10**9) == 0

    def test_matches_enumeration(self):
        rng = Random(53)
        cases = [(frozenset({0, 1, 2}), frozenset({3}), 2)]  # sums 3..6 against 1..2
        for _ in range(30):
            universe = list(range(4))
            x = frozenset(rng.sample(universe, rng.randint(0, 3)))
            y = frozenset(rng.sample(universe, rng.randint(1, 4)))
            if x == y:
                continue
            cases.append((x, y, rng.randint(2, 5)))
        for x, y, n in cases:
            union = sorted(x | y)
            hits = 0
            for values in product(range(1, n + 1), repeat=len(union)):
                f = dict(zip(union, values))
                if sum(f[v] for v in x) == sum(f[v] for v in y):
                    hits += 1
            assert exact_collision_probability(x, y, n) == Fraction(hits, n ** len(union))

    def test_never_exceeds_reciprocal(self):
        subsets = [frozenset(c) for k in range(0, 5) for c in combinations(range(4), k)]
        for n in (2, 5):
            for i in range(len(subsets)):
                for j in range(i + 1, len(subsets)):
                    assert exact_collision_probability(subsets[i], subsets[j], n) <= Fraction(1, n)
