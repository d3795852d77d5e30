"""Monte-Carlo estimation, exact small-case enumeration oracles, and 1-D
omni sequence tooling.

Reproducibility: trial t of a run seeded with s draws from
default_rng(SeedSequence([s, t])).  Results are aggregated as integer
counts, so estimates are identical for any worker count and partitioning.
Exact probabilities are kept as integer counts over a^(n*n) until display.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, check_sizes, target_space

ENUMERATION_GUARD = 2**25
_MASK_BITS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    a: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise MosaicError("trials must be >= 1")
        check_sizes(self.n, self.k, self.a)
        target_space(self.k, self.a)


@dataclass
class MissingStats:
    trials: int
    p_omni: float
    p_omni_stderr: float
    ex_missing: float
    ex_missing_stderr: float
    # exact-mode extras (None for Monte-Carlo estimates)
    p_omni_exact: Fraction | None = None
    ex_missing_exact: Fraction | None = None
    per_target: dict[int, Fraction] | None = None


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _run_trials(config: ExperimentConfig, lo: int, hi: int) -> tuple[int, int, int]:
    """(omni count, sum of missing counts, sum of squared missing counts)."""
    n, k, a = config.n, config.k, config.a
    total = target_space(k, a)
    subsets = kernel.subsets(n, k)
    # codes and bitset bytes of one trial bound how many trials share a step
    batch = max(1, kernel.CHUNK // max(len(subsets) ** 2, min(total, kernel.BITSET_LIMIT)))
    omni = 0
    s1 = 0
    s2 = 0
    for start in range(lo, hi, batch):
        arrs = np.stack([
            trial_rng(config.seed, t).integers(0, a, size=(n, n))
            for t in range(start, min(start + batch, hi))
        ])
        codes = kernel.placement_codes(arrs, k, a, subsets, subsets)
        for distinct in kernel.distinct_counts(codes, total).tolist():
            miss = total - distinct  # Python ints: miss^2 can pass 2^64
            omni += miss == 0
            s1 += miss
            s2 += miss * miss
    return omni, s1, s2


def estimate(config: ExperimentConfig, workers: int = 1) -> MissingStats:
    """Monte-Carlo estimate of P(omni) and E(missing targets) over random matrices.

    At most one worker per CPU runs; the counts do not depend on the worker count.
    """
    t = config.trials
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or t < 2 * workers:
        parts = [_run_trials(config, 0, t)]
    else:
        edges = [t * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _run_trials,
                    [config] * workers,
                    edges[:-1],
                    edges[1:],
                )
            )
    omni = sum(p[0] for p in parts)
    s1 = sum(p[1] for p in parts)
    s2 = sum(p[2] for p in parts)
    p_hat = omni / t
    p_err = math.sqrt(p_hat * (1 - p_hat) / t)
    mean = s1 / t
    var = (s2 - s1 * s1 / t) / (t - 1) if t > 1 else 0.0
    return MissingStats(
        trials=t,
        p_omni=p_hat,
        p_omni_stderr=p_err,
        ex_missing=mean,
        ex_missing_stderr=math.sqrt(max(var, 0.0) / t),
    )


def _check_enumeration_guard(n: int, k: int, a: int) -> int:
    """Number of matrices to enumerate; raises before anything is allocated."""
    check_sizes(n, k, a)
    total_matrices = a ** (n * n)
    if total_matrices > ENUMERATION_GUARD:
        raise MosaicError(
            f"enumeration space {total_matrices} exceeds guard {ENUMERATION_GUARD}"
        )
    return total_matrices


def exact_enumeration(n: int, k: int, a: int) -> MissingStats:
    """Iterate every a^(n*n) matrix; exact P(omni), E(X) and per-target missing
    probabilities as rationals."""
    total_matrices = _check_enumeration_guard(n, k, a)
    total_targets = target_space(k, a)
    if total_targets > _MASK_BITS:
        raise MosaicError("too many targets for exhaustive per-matrix masks")
    full = (1 << total_targets) - 1
    omni = 0
    covered = 0
    for masks in kernel.enumerate_coverage(n, k, a):
        omni += int(np.count_nonzero(masks == full))
        covered = covered + kernel.bit_counts(masks)
    per_target = {
        t: Fraction(total_matrices - int(covered[t]), total_matrices)
        for t in range(total_targets)
    }
    ex = sum(per_target.values(), Fraction(0))
    p_omni = Fraction(omni, total_matrices)
    return MissingStats(
        trials=total_matrices,
        p_omni=float(p_omni),
        p_omni_stderr=0.0,
        ex_missing=float(ex),
        ex_missing_stderr=0.0,
        p_omni_exact=p_omni,
        ex_missing_exact=ex,
        per_target=per_target,
    )


def exact_target_missing_probability(n: int, k: int, a: int, code: int) -> Fraction:
    """Exact P(a single target is missing) by full enumeration; cheaper than
    exact_enumeration when only one target matters, and not limited to 64
    targets."""
    total_matrices = _check_enumeration_guard(n, k, a)
    if not 0 <= code < target_space(k, a):
        raise MosaicError("target code out of range")
    present = sum(
        int(np.count_nonzero(block))
        for block in kernel.enumerate_coverage(n, k, a, target=code)
    )
    return Fraction(total_matrices - present, total_matrices)


@dataclass
class ConjectureReport:
    n: int
    k: int
    a: int
    table: list[tuple[int, Fraction]]  # (target code, P(missing)), descending
    monochromatic_codes: list[int]
    maximal_all_monochromatic: bool
    max_over_mono_ratio: float  # max P(M missing) / P(J missing), reported only
    stats: MissingStats  # the exact enumeration the table was read from


def conjecture_table(n: int, k: int, a: int) -> ConjectureReport:
    """Per-target exact missing probabilities, sorted descending; reports
    whether the maximal entries are exactly the monochromatic targets.
    Observational only: nothing about the conjecture is asserted."""
    stats = exact_enumeration(n, k, a)
    table = sorted(stats.per_target.items(), key=lambda kv: (-kv[1], kv[0]))
    repunit = (a ** (k * k) - 1) // (a - 1)
    mono = [letter * repunit for letter in range(a)]
    top = table[0][1]
    maximal = {code for code, p in table if p == top}
    p_mono = stats.per_target[mono[0]]
    ratio = float(top / p_mono) if p_mono else math.inf
    return ConjectureReport(
        n=n,
        k=k,
        a=a,
        table=table,
        monochromatic_codes=sorted(mono),
        maximal_all_monochromatic=maximal == set(mono),
        max_over_mono_ratio=ratio,
        stats=stats,
    )


def exact_suen_inputs(n: int, k: int, a: int) -> tuple[Fraction, Fraction, Fraction]:
    """(mu, Delta for a monochromatic target, delta), all exact.

    mu = C(n,k)^2 / a^(k*k).  Delta sums, over unordered pairs of distinct
    overlapping placements sharing an r x c block, a^-(2k^2 - r*c) (the joint
    occurrence probability when the target is monochromatic).  delta is the
    largest neighborhood sum: (number of placements overlapping a fixed one)
    times a^-(k*k); by symmetry every placement has the same count.
    """
    if math.comb(n, k) ** 4 > 10**8:
        raise MosaicError("placement-pair space too large")
    akk = Fraction(1, a ** (k * k))
    nplace = math.comb(n, k)
    mu = nplace**2 * akk

    def ordered_pairs(overlap: int) -> int:
        # ordered pairs of k-subsets of [n] intersecting in `overlap` elements
        return math.comb(n, k) * math.comb(k, overlap) * math.comb(n - k, k - overlap)

    delta_sum = Fraction(0)
    for r in range(1, k + 1):
        for c in range(1, k + 1):
            if r == k and c == k:
                continue  # identical placements: not a pair
            count = ordered_pairs(r) * ordered_pairs(c)
            delta_sum += count * Fraction(1, a ** (2 * k * k - r * c))
    delta_big = delta_sum / 2

    overlapping = (nplace - math.comb(n - k, k)) ** 2 - 1
    delta_small = overlapping * akk
    return mu, delta_big, delta_small


# ---------------------------------------------------------------------------
# 1-D omni sequences


def oneD_count_collections(seq, a: int) -> int:
    """Number of disjoint coupon collections in greedy left-to-right order."""
    seen: set[int] = set()
    count = 0
    for x in seq:
        if not 0 <= x < a:
            raise MosaicError(f"letter {x} outside alphabet [0, {a})")
        seen.add(x)
        if len(seen) == a:
            count += 1
            seen.clear()
    return count


def oneD_is_omni(seq, k: int, a: int) -> bool:
    """A sequence contains every length-k word as a subsequence iff it holds
    at least k disjoint coupon collections (greedy segmentation maximizes the
    count, by the standard exchange argument)."""
    return oneD_count_collections(seq, a) >= k


def _word_missing(seq, word) -> bool:
    pos = 0
    for x in seq:
        if x == word[pos]:
            pos += 1
            if pos == len(word):
                return False
    return True


def oneD_missing_count(seq, k: int, a: int) -> int:
    """Number of length-k words not embeddable as subsequences."""
    check_sizes(k=k)
    seq = list(seq)
    missing = 0
    for code in range(a**k):
        word = [(code // a ** (k - 1 - t)) % a for t in range(k)]
        if _word_missing(seq, word):
            missing += 1
    return missing


def oneD_exhaustive_mean_missing(n: int, k: int, a: int) -> Fraction:
    """Mean missing-word count over all a^n sequences, exact; the independent
    oracle for the binomial-tail formula."""
    total = a**n
    if total > ENUMERATION_GUARD:
        raise MosaicError("sequence space exceeds guard")
    grand = 0
    for code in range(a**k):
        word = [(code // a ** (k - 1 - t)) % a for t in range(k)]
        # state[s]: letters of the word matched greedily by prefix s, for
        # every prefix of the current length; each step extends all of them
        # by every letter, until state covers all a^n sequences
        state = np.zeros(1, dtype=np.int8)
        for _ in range(n):
            extended = np.repeat(state[:, None], a, axis=1)
            for matched, letter in enumerate(word):
                extended[:, letter] += state == matched
            state = extended.ravel()
        grand += int(np.count_nonzero(state < k))
    return Fraction(grand, total)
