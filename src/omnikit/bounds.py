"""Closed-form bounds and threshold quantities.

Everything asymptotic is evaluated with natural logarithms; "log" in this
module always means ln.  Counting bounds (pigeonhole, construction size)
use exact big-integer arithmetic; overlap weights are evaluated in the log
domain (``log_binom``), with an exact big-integer cross-check for small
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from omnikit.core import MosaicError, check_sizes, power_exceeds

E = math.e
# a bound on the error of the decimal root in pigeonhole_min_n, which is
# computed to 30 digits past the units
_ROOT_ERROR = Decimal("1e-10")


def log_binom(n: int, k: int) -> float:
    """ln C(n,k) to a few ulps for any n a float can hold.

    With j = min(k, n-k) and m = n - j, a difference of lgamma values loses
    every digit below the float spacing near ln n!, so for m >= 100 the
    factorials come from Stirling's series ln x! = (x + 1/2) ln x - x +
    ln(2 pi)/2 + s(x) instead.  For j < 100 that is ln(n!/m!) - lgamma(j+1);
    for larger j all three factorials are expanded, and n ln n - m ln m -
    j ln j is the sum of the positive -m ln(m/n) and -j ln(j/n).  Against
    50-digit loggamma the relative error stayed under 1e-15 on 20 000
    random (n, j), n up to 2e18 and j up to n/2.  Below m = 100, C(n,k) is
    computed exactly.
    """
    if k < 0 or k > n:
        return -math.inf
    j = min(k, n - k)
    m = n - j
    if m < 100:
        return math.log(math.comb(n, j))
    tail = _stirling(n) - _stirling(m)
    if j < 100:
        ln_falling = j * math.log(n) - j - (m + 0.5) * math.log1p(-j / n) + tail  # ln(n!/m!)
        return ln_falling - math.lgamma(j + 1)
    return (
        -m * math.log1p(-j / n) - j * math.log(j / n)
        + 0.5 * (math.log(n / m) - math.log(2 * math.pi * j)) + tail - _stirling(j)
    )


def _stirling(x: int) -> float:
    """s(x) = ln x! - ((x + 1/2) ln x - x + ln(2 pi)/2), to 1e-17 for x >= 100."""
    y = 1 / x
    return y * (1 / 12 - y * y * (1 / 360 - y * y / 1260))


def pigeonhole_min_n(k: int, a: int) -> int:
    """Smallest n with C(n,k)^2 >= a^(k*k); exact integers.

    The k factors n, n-1, ..., n-k+1 of k! C(n,k) are m + d with
    m = n - s, s = (k-1)/2 and |d| <= s, paired as (m - d)(m + d) around
    m; so (m^2 - s^2)^(k/2) <= k! C(n,k) <= m^k, the right side by the
    AM-GM inequality.  With R = (k! a^(k*k/2))^(1/k), every n < R + s
    falls short and every n with (n - s)^2 >= R^2 + s^2 suffices.
    ``decimal`` gives R to within _ROOT_ERROR at the precision of n, and
    bisecting the bracket between decides at most ceil(log2((k+3)/2))
    values of n exactly, at most one when R is far above k^2.
    """
    check_sizes(k=k, a=a)
    digits = math.lgamma(k + 1) / math.log(10) / k + k / 2 * math.log10(a)
    with localcontext(Context(prec=int(digits) + 30)):
        root = (Decimal(math.factorial(k)).ln() / k + Decimal(a).ln() * k / 2).exp()
        s = Decimal(k - 1) / 2
        lo = math.ceil(root + s - _ROOT_ERROR) - 1  # falls short
        hi = math.ceil(((root + _ROOT_ERROR) ** 2 + s * s).sqrt() + s + _ROOT_ERROR)
    target = a ** (k * k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.comb(mid, k) ** 2 >= target else (mid, hi)
    return hi


def _finite(name: str, compute) -> float:
    """compute(), or MosaicError where that float overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise MosaicError(f"{name} overflows a float")
    return value


def asymptotic_lower(k: int, a: int) -> float:
    """Stirling form of the pigeonhole bound: k * a^(k/2) / e."""
    check_sizes(k=k, a=a)
    return _finite("k * a^(k/2) / e", lambda: k * a ** (k / 2) / E)


def construction_upper(k: int, a: int) -> int:
    """Side length achieved by the balanced grid construction (padded square)."""
    check_sizes(k=k, a=a)
    lo, hi = k // 2, k - k // 2
    return hi * a**hi + lo * a**lo


def ramsey_n0(k: int) -> float:
    """(sqrt2/e) * k * 2^(k/2): the graph-analog counting bound."""
    check_sizes(k=k)
    return _finite("(sqrt2/e) * k * 2^(k/2)", lambda: math.sqrt(2) / E * k * 2 ** (k / 2))


def phi_log(r: int, c: int, n: int, k: int, a: int) -> float:
    """ln of the overlap weight C(k,r)C(k,c)C(n,k-r)C(n,k-c)a^(r*c)."""
    return (
        log_binom(k, r)
        + log_binom(k, c)
        + log_binom(n, k - r)
        + log_binom(n, k - c)
        + r * c * math.log(a)
    )


def phi_exact(r: int, c: int, n: int, k: int, a: int) -> int:
    return (
        math.comb(k, r)
        * math.comb(k, c)
        * math.comb(n, k - r)
        * math.comb(n, k - c)
        * a ** (r * c)
    )


@dataclass
class BoundsReport:
    n: int
    k: int
    a: int
    log_mu: float
    log_delta_cap: float
    log_delta_small: float
    log_missing_bound: float
    log_total_bound: float
    certifies_existence: bool
    lemma_small_overlap_ok: bool  # n >= k^2*a/2 + k - 2
    lemma_large_overlap_ok: bool  # n <= a^k / k
    advisory: bool


def _exp_guarded(x: float) -> float:
    return math.inf if x > 700 else math.exp(x)


def _lemma_preconditions(n: int, k: int, a: int) -> tuple[bool, bool, bool]:
    """Whether n >= k^2*a/2 + k - 2, n <= a^k/k and n <= a^(k-1)/k, the phi
    lemmas' small, large and critical preconditions, in exact integers."""
    large, critical = (power_exceeds(a, e, n * k - 1) for e in (k, k - 1))  # a^e >= n*k
    return 2 * n >= k * k * a + 2 * k - 4, large, critical


def suen_report(n: int, k: int, a: int) -> BoundsReport:
    """Per-matrix and total missing-probability bounds from the correlation inequality.

    log_mu = 2 ln C(n,k) - k^2 ln a; the overlap sum is capped by
    mu * n k^3 / a^k and the neighborhood sum by mu * 2 k^4 / n^2; the
    per-matrix bound is exp(-mu + cap * e^(2*delta)), and the total bound
    multiplies by the a^(k*k) targets.  When the preconditions backing the
    cap chain fail, the report is flagged advisory.
    """
    check_sizes(n, k, a)
    if n < k:
        raise MosaicError("n must be >= k")
    ln_a = math.log(a)
    log_mu = _finite("ln C(n,k)", lambda: 2 * log_binom(n, k) - k * k * ln_a)
    log_delta_cap = log_mu + math.log(n) + 3 * math.log(k) - k * ln_a
    log_delta_small = log_mu + math.log(2) + 4 * math.log(k) - 2 * math.log(n)
    delta_small = _exp_guarded(log_delta_small)
    log_term = log_delta_cap + 2 * delta_small  # ln of (Delta cap) * e^(2 delta)
    if log_mu <= 700 and log_term <= 700:
        exponent = -math.exp(log_mu) + math.exp(log_term)
    elif log_term >= log_mu:
        exponent = math.inf
    else:
        exponent = -math.inf
    # a probability bound: exp(exponent) is capped at 1
    log_missing = min(0.0, exponent)
    log_total = k * k * ln_a + log_missing
    small_ok, large_ok, _ = _lemma_preconditions(n, k, a)
    return BoundsReport(
        n=n,
        k=k,
        a=a,
        log_mu=log_mu,
        log_delta_cap=log_delta_cap,
        log_delta_small=log_delta_small,
        log_missing_bound=log_missing,
        log_total_bound=log_total,
        certifies_existence=log_total < 0,
        lemma_small_overlap_ok=small_ok,
        lemma_large_overlap_ok=large_ok,
        advisory=not (small_ok and large_ok),
    )


@dataclass
class ThresholdEstimate:
    """Upper-bound sizes above which random matrices are certified omni w.h.p.

    refined: the calibrated form k + (k a^(k/2)/e) * (2 pi k)^(1/2k)
    * (1 + 1/12k)^(1/k) * exp(ln k / k + ln ln a / (2k)), with the
    unspecified vanishing term set to 0 (a threshold estimate, not a proven
    bound at finite k).  theorem_form: ceil((k a^(k/2)/e)(1 + 2 ln k / k)).
    """

    refined: int
    theorem_form: int


def suen_threshold_n(k: int, a: int) -> ThresholdEstimate:
    check_sizes(a=a)
    if k < 2:
        raise MosaicError("k must be >= 2")
    base = asymptotic_lower(k, a)
    # ln ln a is negative for a=2; that is fine, it is just a real number.
    refined = _finite("the refined threshold", lambda: k + base * (
        (2 * math.pi * k) ** (1 / (2 * k))
        * (1 + 1 / (12 * k)) ** (1 / k)
        * math.exp(math.log(k) / k + math.log(math.log(a)) / (2 * k))
    ))
    theorem = _finite("the theorem-form threshold", lambda: base * (1 + 2 * math.log(k) / k))
    return ThresholdEstimate(refined=math.ceil(refined), theorem_form=math.ceil(theorem))


@dataclass
class LemmaCheck:
    name: str
    precondition_holds: bool
    passed: bool | None  # None when the precondition fails (not evaluated)
    counterexample: tuple | None = None


@dataclass
class LemmaVerdicts:
    n: int
    k: int
    a: int
    checks: list[LemmaCheck] = field(default_factory=list)

    def check(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_applicable_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.precondition_holds)


_EPS = 1e-9


def _at_most_one_sign_change(diffs: list[float], first: int) -> tuple[bool, int | None]:
    """Whether the signs of diffs run `first` then -first, either run possibly
    empty, skipping every |d| <= _EPS; if not, the index of the first
    difference with the sign of `first` that follows one with the other."""
    turned = False
    for idx, d in enumerate(diffs):
        if abs(d) <= _EPS:
            continue
        if (d > 0) != (first > 0):
            turned = True
        elif turned:
            return False, idx
    return True, None


def check_lemma_properties(n: int, k: int, a: int) -> LemmaVerdicts:
    """Numeric verification of the overlap-weight structure on the discrete domain.

    Checked, each under its own precondition:
      unimodal_rows:   for each c, phi(., c) rises then falls (monotone allowed);
      small_overlap:   phi(1,1) >= phi(2,1) when n >= k^2*a/2 + k - 2;
      large_overlap:   phi(k,k) >= phi(k-1,k) when n <= a^k/k;
      diagonal_valley: sqrt(phi(r,r)) falls then rises, when the diagonal
                       slope is nonpositive at r=1 and nonnegative at r=k-1
                       (the endpoint conditions its proof assumes);
      peak_dominates:  phi(k-1,k) >= phi(1,1), when the Stirling-style
                       sufficient inequality n k a^(k(k-1)) >=
                       k^2 (ne/(k-1))^(2k-2) a holds;
      critical_point:  argmax over {r+c < 2k} is (k-1,k) or (k,k-1) when
                       n <= a^(k-1)/k and the peak_dominates precondition
                       also holds.
    """
    check_sizes(n, k, a)
    if n < k:  # phi(r, c) = 0 for small r, and differences of -inf are NaN
        raise MosaicError("n must be >= k")
    v = LemmaVerdicts(n, k, a)

    def phi(r, c):
        return phi_log(r, c, n, k, a)

    # unimodal in r for each fixed c (no precondition)
    passed, ce = True, None
    for c in range(1, k + 1):
        r_max = k if c < k else k - 1
        diffs = [phi(r + 1, c) - phi(r, c) for r in range(1, r_max)]
        ok, idx = _at_most_one_sign_change(diffs, first=1)
        if not ok:
            passed, ce = False, (idx + 1, c)
            break
    v.checks.append(LemmaCheck("unimodal_rows", True, passed, ce))

    small, large, critical = _lemma_preconditions(n, k, a)
    res = phi(1, 1) >= phi(2, 1) - _EPS if small else None
    v.checks.append(LemmaCheck("small_overlap", small, res))

    res = phi(k, k) >= phi(k - 1, k) - _EPS if large else None
    v.checks.append(LemmaCheck("large_overlap", large, res))

    gammas = [0.5 * phi(r, r) for r in range(1, k)]
    diffs = [b - x for x, b in zip(gammas, gammas[1:])]
    pre = len(diffs) < 2 or (diffs[0] <= _EPS and diffs[-1] >= -_EPS)
    if pre:
        ok, idx = _at_most_one_sign_change(diffs, first=-1)
        v.checks.append(
            LemmaCheck("diagonal_valley", True, ok, None if ok else (idx + 1, idx + 1))
        )
    else:
        v.checks.append(LemmaCheck("diagonal_valley", False, None))

    # sufficient inequality backing the peak comparison, in log form:
    # ln(nk) + k(k-1) ln a >= 2 ln k + (2k-2)(ln n + 1 - ln(k-1)) + ln a
    peak_pre = k >= 2 and (
        math.log(n * k) + k * (k - 1) * math.log(a)
        >= 2 * math.log(k) + (2 * k - 2) * (math.log(n) + 1 - math.log(k - 1)) + math.log(a)
    )
    peak_res = phi(k - 1, k) >= phi(1, 1) - _EPS if peak_pre else None
    v.checks.append(LemmaCheck("peak_dominates", peak_pre, peak_res))

    if peak_pre and critical:
        cells = ((r, c) for r in range(1, k + 1) for c in range(1, k + 1) if r + c < 2 * k)
        arg = max(cells, key=lambda rc: phi(*rc))  # the first maximum
        ok = max(phi(k - 1, k), phi(k, k - 1)) >= phi(*arg) - _EPS
        v.checks.append(LemmaCheck("critical_point", True, ok, None if ok else arg))
    else:
        v.checks.append(LemmaCheck("critical_point", False, None))

    return v


def oneD_threshold(a: int) -> Fraction:
    """a * H(1..a): the n/k ratio at which random sequences become k-omni."""
    check_sizes(a=a)
    return a * sum(Fraction(1, i) for i in range(1, a + 1))


def oneD_EX(n: int, k: int, a: int, exact: bool = False):
    """Expected number of length-k words missing as subsequences of a random
    length-n sequence: a^k * P(Bin(n, 1/a) <= k-1).

    A fixed word is missing iff greedy matching accrues fewer than k hits,
    and each position hits independently with probability 1/a.  Validated
    against exhaustive enumeration in the experiments module.
    """
    check_sizes(k=k, a=a)
    if n < 0:
        raise MosaicError(f"n must be >= 0, got {n}")
    p = Fraction(1, a)
    tail = sum(
        math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(min(k, n + 1))
    )
    value = a**k * tail
    return value if exact else float(value)


def _kl(x: float, p: float) -> float:
    return x * math.log(x / p) + (1 - x) * (math.log1p(-x) - math.log1p(-p))


def oneD_EX_threshold_ratio(a: int) -> float:
    """The n/k ratio at which the expected missing count flips from divergent
    to vanishing: the root r > a of ln a = r * D(1/r || 1/a)."""
    check_sizes(a=a)
    target = math.log(a)

    def f(r: float) -> float:
        return r * _kl(1 / r, 1 / a) - target

    tol = 1e-6
    lo = a + tol
    hi = float(a + 1)
    while f(hi) < 0:
        hi = _finite("the n/k ratio", lambda: hi * 2)
    # past about 3e8 the float spacing near the root exceeds tol, and the
    # bracket stops shrinking when the midpoint equals an end
    while hi - lo > tol and lo < (mid := (lo + hi) / 2) < hi:
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
