import math
import time
from fractions import Fraction

import pytest

from omnikit import bounds
from omnikit.core import MosaicError


def _isqrt_pigeonhole(k: int, a: int) -> int:
    """Least n with C(n,k) >= T = ceil(sqrt(a^(k*k))): since (n-k+1)^k <=
    k! C(n,k) <= n^k, it lies in [r, r+k-1], r the least integer with
    r^k >= k! T, found by integer Newton steps; bisect that range."""
    need = math.isqrt(a ** (k * k) - 1) + 1
    x = math.factorial(k) * need
    log_r = math.log(x) / k
    shift = max(0, int(log_r / math.log(2)) - 60)
    r = (int(math.exp(log_r - shift * math.log(2))) + 1) << shift

    def step(r: int) -> int:  # never below floor(x^(1/k)); below r while r^k > x
        return ((k - 1) * r + x // r ** (k - 1)) // k

    r = step(r)
    while (s := step(r)) < r:
        r = s
    r = r if r**k >= x else r + 1
    lo, hi = r - 1, r + k - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.comb(mid, k) >= need else (mid, hi)
    return hi


class TestCountingBounds:
    def test_pigeonhole_values(self):
        assert bounds.pigeonhole_min_n(2, 2) == 4
        assert bounds.pigeonhole_min_n(2, 3) == 5
        assert bounds.pigeonhole_min_n(1, 2) == 2

    def test_pigeonhole_defining_inequality(self):
        for k in range(1, 5):
            for a in range(2, 5):
                n = bounds.pigeonhole_min_n(k, a)
                assert math.comb(n, k) ** 2 >= a ** (k * k)
                if n > k:
                    assert math.comb(n - 1, k) ** 2 < a ** (k * k)

    def test_pigeonhole_bisection_matches_scan(self):
        for a in (2, 3, 5):
            for k in range(1, 14):
                need, n = a ** (k * k), k
                while math.comb(n, k) ** 2 < need:
                    n += 1
                assert bounds.pigeonhole_min_n(k, a) == n, (k, a)

    def test_pigeonhole_matches_the_isqrt_bisection(self):
        # the reference brackets n from an exact integer root of k! ceil(a^(k*k/2))
        for a in (2, 3, 5):
            for k in range(1, 201):
                assert bounds.pigeonhole_min_n(k, a) == _isqrt_pigeonhole(k, a), (k, a)

    def test_pigeonhole_values_past_the_scan(self):
        assert bounds.pigeonhole_min_n(300, 2) == (
            159509061481908140763142896844491942899175332205
        )

    @pytest.mark.parametrize("k,a", [(1, 2), (2, 2), (3, 5), (13, 3), (40, 2), (300, 2), (1000, 2),
                                     (2000, 2)])
    def test_pigeonhole_evaluates_few_binomials(self, monkeypatch, k, a):
        calls, exact = [], math.comb

        def comb(n, j):
            calls.append(n)
            return exact(n, j)

        monkeypatch.setattr(bounds.math, "comb", comb)
        n = bounds.pigeonhole_min_n(k, a)
        assert len(calls) <= math.ceil(math.log2(k)) + 1
        if k <= 40:  # the defining inequality, exactly
            monkeypatch.undo()
            assert math.comb(n - 1, k) ** 2 < a ** (k * k) <= math.comb(n, k) ** 2

    def test_pigeonhole_at_paper_scale(self):
        # about 1.65e7 sizes below the answer; a scan of them takes minutes
        n = bounds.pigeonhole_min_n(40, 2)
        assert n == 16534519
        assert math.comb(n - 1, 40) ** 2 < 2**1600 <= math.comb(n, 40) ** 2

    @pytest.mark.parametrize("k,a", [(2100, 2), (1300, 3), (2, 10**400)])
    def test_float_overflow_is_a_mosaic_error(self, k, a):
        for bound in (bounds.asymptotic_lower, bounds.suen_threshold_n):
            with pytest.raises(MosaicError, match="overflows a float"):
                bound(k, a)

    def test_float_overflow_past_a_finite_base(self):
        assert bounds.asymptotic_lower(2, 2**1021) < math.inf
        with pytest.raises(MosaicError, match="refined threshold overflows"):
            bounds.suen_threshold_n(2, 2**1021)
        with pytest.raises(MosaicError, match="overflows a float"):
            bounds.ramsey_n0(2047)
        for n in (10**309, 10**400):  # n itself overflows a float
            with pytest.raises(MosaicError, match="overflows a float"):
                bounds.suen_report(n, 2, 2)
        # ln C(n,2) stays finite wherever n does, although ln n! overflows
        n = 10**306
        want = 2 * math.log(math.comb(n, 2)) - 4 * math.log(2)
        assert bounds.suen_report(n, 2, 2).log_mu == pytest.approx(want, rel=1e-12)

    def test_asymptotic_matches_stirling(self):
        assert bounds.asymptotic_lower(2, 2) == pytest.approx(4 / math.e)
        # the Stirling form undershoots the exact bound
        for k in range(2, 12):
            assert bounds.asymptotic_lower(k, 2) <= bounds.pigeonhole_min_n(k, 2)

    def test_construction_upper_values(self):
        assert bounds.construction_upper(2, 2) == 4
        assert bounds.construction_upper(2, 3) == 6
        assert bounds.construction_upper(3, 2) == 10
        assert bounds.construction_upper(3, 3) == 21

    def test_ramsey_ratio(self):
        # the graph-analog bound is exactly sqrt(2) times the a=2 matrix bound
        for k in range(2, 20):
            assert bounds.ramsey_n0(k) == pytest.approx(
                math.sqrt(2) * bounds.asymptotic_lower(k, 2)
            )


class TestLogBinom:
    @pytest.mark.parametrize("n", [10**6, 10**12, 10**16, 10**18])
    def test_matches_exact_at_large_n(self, n):
        for k in (1, 2, 3, 10):
            for j in (k, n - k):  # and n - k small
                want = math.log(math.comb(n, j))
                assert bounds.log_binom(n, j) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_matches_exact_at_large_j(self, n):
        # j = min(k, n-k) far from 0: the branch that expands all three factorials
        for j in (99, 100, 101, n // 10, n // 3, n // 2 - 1, n // 2):
            want = math.log(math.comb(n, j))
            assert bounds.log_binom(n, j) == pytest.approx(want, rel=1e-14, abs=0)
            assert bounds.log_binom(n, n - j) == pytest.approx(want, rel=1e-14, abs=0)

    def test_half_of_a_huge_n(self):
        # m * j alone would overflow a float; ln C(n, n/2) = n ln 2 - ln(pi n / 2) / 2
        n = 10**300
        assert bounds.log_binom(n, n // 2) == pytest.approx(n * math.log(2), rel=1e-14)

    def test_matches_exact_at_small_n(self):
        for n in range(0, 260, 7):
            for k in range(0, n + 1):
                want = math.log(math.comb(n, k))
                assert bounds.log_binom(n, k) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_outside_range(self):
        assert bounds.log_binom(5, 6) == bounds.log_binom(5, -1) == -math.inf


class TestOverlapWeight:
    def test_exact_example(self):
        # C(2,1)^2 * C(10,1)^2 * 3^1
        assert bounds.phi_exact(1, 1, 10, 2, 3) == 4 * 100 * 3

    def test_log_matches_exact(self):
        for n in (6, 12, 30):
            for k in range(1, 6):
                if k > n:
                    continue
                for a in (2, 3, 4):
                    for r in range(0, k + 1):
                        for c in range(0, k + 1):
                            exact = bounds.phi_exact(r, c, n, k, a)
                            assert bounds.phi_log(r, c, n, k, a) == pytest.approx(
                                math.log(exact), rel=1e-9
                            )

    def test_full_overlap_is_target_probability_scale(self):
        # phi(k,k) = a^(k*k): both subsets fixed, full block
        for k in range(1, 5):
            for a in (2, 3):
                assert bounds.phi_exact(k, k, 10, k, a) == a ** (k * k)

    def test_near_full_overlap(self):
        n, k, a = 12, 3, 2
        assert bounds.phi_exact(k - 1, k, n, k, a) == (
            math.comb(k, k - 1) * n * a ** (k * (k - 1))
        )


class TestSuenReport:
    def test_log_mu_formula(self):
        rep = bounds.suen_report(10, 2, 2)
        assert rep.log_mu == pytest.approx(2 * math.log(45) - 4 * math.log(2))

    def test_cap_identity(self):
        # Delta cap / mu = n k^3 / a^k, delta cap / mu = 2 k^4 / n^2
        for n, k, a in [(50, 4, 2), (200, 6, 3), (1000, 8, 2)]:
            rep = bounds.suen_report(n, k, a)
            assert rep.log_delta_cap - rep.log_mu == pytest.approx(
                math.log(n * k**3 / a**k)
            )
            assert rep.log_delta_small - rep.log_mu == pytest.approx(
                math.log(2 * k**4 / n**2)
            )

    def test_missing_bound_is_probability(self):
        for n in (10, 100, 1000):
            rep = bounds.suen_report(n, 4, 2)
            assert rep.log_missing_bound <= 0.0

    def test_total_nonincreasing_in_n_near_threshold(self):
        k, a = 10, 2
        n0 = bounds.suen_threshold_n(k, a).refined
        vals = [bounds.suen_report(n, k, a).log_total_bound for n in range(n0, 2 * n0)]
        assert all(b <= x + 1e-9 for x, b in zip(vals, vals[1:]))

    def test_advisory_flag(self):
        # n=4, k=2, a=2 violates the large-overlap precondition n <= a^k/k
        assert bounds.suen_report(4, 2, 2).advisory
        # n=8, k=2, a=4 sits exactly where both preconditions hold
        assert not bounds.suen_report(8, 2, 4).advisory

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bounds.suen_report(1, 2, 2)


class TestThreshold:
    def test_ratio_to_asymptotic_decreases(self):
        prev = None
        for k in (10, 20, 40):
            est = bounds.suen_threshold_n(k, 2)
            ratio = est.refined / bounds.asymptotic_lower(k, 2)
            cap = 1 + 2 * math.log(k) / k + 10 / k
            assert ratio <= cap
            if prev is not None:
                assert ratio < prev
            prev = ratio

    def test_theorem_form(self):
        k, a = 20, 2
        est = bounds.suen_threshold_n(k, a)
        base = bounds.asymptotic_lower(k, a)
        assert est.theorem_form == math.ceil(base * (1 + 2 * math.log(k) / k))

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            bounds.suen_threshold_n(1, 2)


class TestLemmaProperties:
    def test_example_point_all_pass(self):
        v = bounds.check_lemma_properties(340, 12, 2)
        assert v.all_applicable_pass
        for name in (
            "unimodal_rows",
            "small_overlap",
            "large_overlap",
            "diagonal_valley",
        ):
            assert v.check(name).precondition_holds

    def test_small_overlap_window(self):
        # precondition n >= k^2 a / 2 + k - 2
        k, a = 4, 2
        lo = k * k * a // 2 + k - 2
        assert bounds.check_lemma_properties(lo, k, a).check("small_overlap").precondition_holds
        c = bounds.check_lemma_properties(lo - 1, k, a).check("small_overlap")
        assert not c.precondition_holds
        assert c.passed is None

    def test_large_overlap_window(self):
        k, a = 4, 2
        hi = a**k // k  # 4
        assert not bounds.check_lemma_properties(hi + 1, k, a).check(
            "large_overlap"
        ).precondition_holds
        v = bounds.check_lemma_properties(hi, k, a)
        assert v.check("large_overlap").precondition_holds
        assert v.check("large_overlap").passed

    # n = floor(a^k/k) and one past it; at (62, 2) a float 2^62/62 falls
    # below that n, so a float form says the precondition fails there
    @pytest.mark.parametrize("k,a", [(4, 2), (6, 3), (62, 2), (30, 7)])
    def test_preconditions_agree_with_suen_report(self, k, a):
        for n in (a**k // k, a**k // k + 1):
            rep = bounds.suen_report(n, k, a)
            v = bounds.check_lemma_properties(n, k, a)
            large = v.check("large_overlap").precondition_holds
            assert large == rep.lemma_large_overlap_ok == (n * k <= a**k)
            small = v.check("small_overlap").precondition_holds
            assert small == rep.lemma_small_overlap_ok == (2 * n >= k * k * a + 2 * k - 4)

    def test_preconditions_of_huge_sizes_are_exact(self):
        # a^k/k of (60, 10^6) overflowed a float division
        v = bounds.check_lemma_properties(10**9, 60, 10**6)
        assert v.check("large_overlap").precondition_holds
        assert not v.check("small_overlap").precondition_holds

    def test_critical_point_window(self):
        k, a = 6, 3
        hi = a ** (k - 1) // k  # 40
        v = bounds.check_lemma_properties(hi, k, a)
        assert v.check("critical_point").precondition_holds
        assert v.check("critical_point").passed
        assert not bounds.check_lemma_properties(hi + 1, k, a).check(
            "critical_point"
        ).precondition_holds

    @pytest.mark.parametrize("n", [20, 60, 180, 500])
    def test_unimodality_holds_widely(self, n):
        for k in (3, 5, 8):
            for a in (2, 3):
                assert bounds.check_lemma_properties(n, k, a).check(
                    "unimodal_rows"
                ).passed

    def test_diagonal_valley_when_applicable(self):
        # wherever the endpoint-slope precondition holds, the valley shape must
        applicable = 0
        for k, a in [(3, 2), (5, 3), (8, 2), (12, 2), (16, 2)]:
            n0 = bounds.suen_threshold_n(k, a).refined
            for n in (n0, 2 * n0, 4 * n0):
                c = bounds.check_lemma_properties(n, k, a).check("diagonal_valley")
                if c.precondition_holds:
                    applicable += 1
                    assert c.passed
        assert applicable >= 5

    def test_diagonal_valley_skipped_outside_regime(self):
        # at (20, 5, 2) the diagonal rises then falls; the endpoint
        # precondition detects that and the check is not evaluated
        c = bounds.check_lemma_properties(20, 5, 2).check("diagonal_valley")
        assert not c.precondition_holds
        assert c.passed is None

    def test_peak_and_critical_point_near_threshold(self):
        # at n ~ k a^(k/2)/e the peak comparison applies and holds; for the
        # larger cases the critical-point window contains that n as well
        for k, a in [(14, 2), (16, 2), (12, 3)]:
            n = math.ceil(bounds.asymptotic_lower(k, a))
            v = bounds.check_lemma_properties(n, k, a)
            c = v.check("peak_dominates")
            assert c.precondition_holds and c.passed
        cc = bounds.check_lemma_properties(
            math.ceil(bounds.asymptotic_lower(16, 2)), 16, 2
        ).check("critical_point")
        assert cc.precondition_holds and cc.passed

    def test_verdict_lookup_unknown(self):
        v = bounds.check_lemma_properties(20, 3, 2)
        with pytest.raises(KeyError):
            v.check("nope")


class TestOneD:
    def test_threshold_binary_is_three(self):
        assert bounds.oneD_threshold(2) == 3
        assert isinstance(bounds.oneD_threshold(2), Fraction)

    def test_threshold_ternary(self):
        assert bounds.oneD_threshold(3) == Fraction(11, 2)

    def test_threshold_rejects_unary(self):
        with pytest.raises(ValueError):
            bounds.oneD_threshold(1)

    def test_EX_small_exact(self):
        # n=4, k=2, a=2: 2^2 * P(Bin(4,1/2) <= 1) = 4 * 5/16
        assert bounds.oneD_EX(4, 2, 2, exact=True) == Fraction(5, 4)

    def test_EX_zero_words_missing_never(self):
        # n < k: every word missing
        assert bounds.oneD_EX(1, 2, 2, exact=True) == 4

    def test_EX_threshold_ratio_binary(self):
        r = bounds.oneD_EX_threshold_ratio(2)
        assert r == pytest.approx(4.4035, abs=5e-4)
        # root property: r * D(1/r || 1/2) = ln 2
        assert r * bounds._kl(1 / r, 0.5) == pytest.approx(math.log(2), abs=1e-5)

    def test_EX_threshold_ratio_exceeds_coupon_threshold(self):
        for a in (2, 3, 4):
            assert bounds.oneD_EX_threshold_ratio(a) > float(bounds.oneD_threshold(a))

    @pytest.mark.parametrize("a", [3 * 10**8, 10**9, 10**12, 10**15, 10**300])
    def test_EX_threshold_ratio_at_large_a(self, a):
        # the bracket there is narrower than the absolute tolerance allows
        start = time.perf_counter()
        r = bounds.oneD_EX_threshold_ratio(a)
        assert time.perf_counter() - start < 0.1
        assert a < r < 2 * a * math.log(a)
        assert r * bounds._kl(1 / r, 1 / a) == pytest.approx(math.log(a), rel=1e-9)

    def test_EX_threshold_ratio_past_float_range(self):
        with pytest.raises(MosaicError):
            bounds.oneD_EX_threshold_ratio(10**306)
