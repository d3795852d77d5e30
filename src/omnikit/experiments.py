"""Monte-Carlo estimation, exact small-case enumeration oracles, and 1-D
omni sequence tooling.

Reproducibility, stream 2: the trials of a run seeded with s come in blocks
of B(n) = max(1, STREAM_CELLS // n^2) trials, and trial t is entry t mod B(n)
of block t // B(n).  Block b is
``default_rng([s, b]).integers(0, a, size=(B(n), n, n), dtype=np.int64)``.
Workers count ranges of trials.  A range draws each block it overlaps only
up to the last trial it needs: numpy's draws are prefix-stable, so those
are the first entries of the whole block.  Results are aggregated as
integer counts, so estimates are identical for any worker count.  A worker
is started only for POOL_FLOOR of predicted work (``trial_cost``: the
draw's CELL_COST a cell plus the kernel's price of the count).  Exact
probabilities are kept as integer counts over a^(n*n) until display.

Exact enumeration walks only the a^(n*n-1) matrices whose entry (0, 0) is 0
(``kernel.enumerate_coverage``).  The letter transposition tau_l = (0 l),
tau_0 the identity, maps them one-to-one onto those whose entry (0, 0) is l
and keeps the omni property, and a target t occurs in tau_l(M) iff tau_l(t)
occurs in M.  So the omni count is a times the slice's, and the matrices
that cover t number sum_l covered_0[tau_l(t)], where covered_0 counts in the
slice (``_letter_swaps`` gives tau_l of codes).
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, check_sizes, power_exceeds, target_space

ENUMERATION_GUARD = 2**25
# Predicted work (trial_cost word-steps) that pays for one pool worker.
# On a 2-core VM a two-worker pool took 2.5 ms to start and join with empty
# parts; with real parts two workers broke even with one near 40 M word-steps
# of work at (12,3,2) and (16,2,3), about 20 ms, and stayed within the spread
# between runs of one worker from 50 M to 130 M at (4,2,2).
POOL_FLOOR = 20_000_000
# A cell of a stream block took 3.1-3.6 ns at every n from 2 to 64 on a
# 2-core Intel Xeon VM, about 18 kernel word-steps at 0.18 ns.
CELL_COST = 18


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
        if self.seed < 0:
            raise MosaicError(f"seed must be >= 0, got {self.seed}")
        check_sizes(self.n, self.k, self.a)
        target_space(self.k, self.a)
        # a trial's codes are held at once, so they share the enumeration guard;
        # the automaton holds max(32 * CHUNK, one row subset's) bytes of levels
        # at once (kernel.automaton_parts) and, wherever kernel.distinct_counts
        # picks it, a top level of under 8 * CODE_COST * C(n,k) bytes a trial
        if math.comb(self.n, self.k) ** 2 > ENUMERATION_GUARD:
            raise MosaicError(
                f"C({self.n},{self.k})^2 placements per trial exceed guard {ENUMERATION_GUARD}"
            )


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


# The stream draws its trials in blocks of about STREAM_CELLS cells.  It is
# the stream's own constant, not kernel.CHUNK, so that tuning the kernel never
# changes a seeded result.  STREAM names the stream in ``sample``'s output.
STREAM, STREAM_CELLS = 2, 1 << 16


def block_size(n: int) -> int:
    """Trials in one block of the stream at side n."""
    return max(1, STREAM_CELLS // (n * n))


def _run_trials(config: ExperimentConfig, lo: int, hi: int) -> tuple[int, int, int]:
    """(omni count, sum of missing counts, sum of squared missing counts) over
    trials [lo, hi) of the stream."""
    n, k, a = config.n, config.k, config.a
    total = target_space(k, a)
    size = block_size(n)
    omni = s1 = s2 = 0
    for b in range(lo // size, -(-hi // size)):
        # drawn up to the last trial the range needs, counted from lo
        rng = np.random.default_rng([config.seed, b])
        block = rng.integers(0, a, size=(min(size, hi - b * size), n, n), dtype=np.int64)
        distinct = kernel.distinct_counts(block[max(0, lo - b * size):], k, a)
        # no int64 overflow: distinct <= min(4^n, 2^25) (C(n,k)^2, under the config
        # guard) and a block holds <= STREAM_CELLS/n^2 trials, so distinct @ distinct < 2^59
        m, sd, sdd = len(distinct), int(distinct.sum()), int(distinct @ distinct)
        omni += int(np.count_nonzero(distinct == total))
        s1 += m * total - sd
        s2 += m * total * total - 2 * total * sd + sdd
    return omni, s1, s2


def trial_cost(n: int, k: int, a: int) -> int:
    """Predicted cost of one n×n trial: its draw and its count by the cheaper
    path, priced as ``kernel.distinct_counts`` prices it, in word-steps."""
    part_trials = kernel.automaton_parts(sys.maxsize, n, k, a)[1]
    return CELL_COST * n * n + min(kernel.path_costs(part_trials, n, n, k, a)) // part_trials


def _worker_count(config: ExperimentConfig, workers: int) -> int:
    """How many workers ``estimate`` starts: at most ``workers``, one per CPU
    the process may run on and one per trial, and only as many as each get
    POOL_FLOOR of predicted work (``trial_cost``); at least one."""
    if workers < 1:
        raise MosaicError(f"workers must be >= 1, got {workers}")
    work = config.trials * trial_cost(config.n, config.k, config.a)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(workers, cpus, config.trials, work // POOL_FLOOR))


def estimate(config: ExperimentConfig, workers: int = 1) -> MissingStats:
    """Monte-Carlo estimate of P(omni) and E(missing targets) over random matrices.

    Runs on ``_worker_count(config, workers)`` workers, in this process when
    that is one; the counts do not depend on the worker count.
    """
    t = config.trials
    workers = _worker_count(config, workers)
    if workers == 1:
        parts = [_run_trials(config, 0, t)]
    else:  # each worker counts a range of trials
        edges = [t * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_trials, [config] * workers, edges[:-1], edges[1:]))
    omni, s1, s2 = (sum(column) for column in zip(*parts))
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
    if power_exceeds(a, n * n, ENUMERATION_GUARD):
        raise MosaicError(f"enumeration space {a}^{n * n} exceeds guard {ENUMERATION_GUARD}")
    return a ** (n * n)


def _letter_swaps(codes, k: int, a: int) -> np.ndarray:
    """[l, c]: the code of target codes[c] with letters 0 and l swapped, the
    transposition tau_l = (0 l), tau_0 the identity."""
    digits = kernel.row_digits(np.asarray(codes, dtype=np.int64), k * k, a)  # [c, entry]
    letters = np.arange(a)[:, None, None]
    swapped = np.where(digits == 0, letters, np.where(digits == letters, 0, digits))
    return swapped @ a ** np.arange(k * k - 1, -1, -1)


def exact_enumeration(n: int, k: int, a: int) -> MissingStats:
    """Exact P(omni), E(X) and per-target missing probabilities over every
    a^(n*n) matrix, as rationals, from the matrices whose entry (0, 0) is 0
    (module docstring)."""
    total_matrices = _check_enumeration_guard(n, k, a)
    total_targets = target_space(k, a)
    if total_targets > kernel.MASK_BITS:
        raise MosaicError("too many targets for exhaustive per-matrix masks")
    omni = 0
    if k < n:
        full = (1 << total_targets) - 1
        covered = 0  # [t]: matrices with entry (0, 0) = 0 that cover t
        for masks in kernel.enumerate_coverage(n, k, a, range(total_targets)):
            omni += int(np.count_nonzero(masks == full))
            covered = covered + kernel.bit_counts(masks, total_targets)
        # tau_l maps those matrices onto the ones with entry (0, 0) = l, keeps
        # the omni ones omni, and puts t in tau_l(M) iff tau_l(t) is in M
        omni *= a
        covered = covered[_letter_swaps(range(total_targets), k, a)].sum(axis=0)
    else:
        # k = n: a matrix's one placement is itself, so each target occurs in
        # exactly one matrix; k > n: in none.  Either way no matrix is omni.
        covered = [int(k == n)] * total_targets
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
    targets.  The matrices with entry (0, 0) = l that cover the code are
    those with entry (0, 0) = 0 that cover its image under tau_l, so the
    enumeration tracks the code's distinct images, 64 at a time."""
    total_matrices = _check_enumeration_guard(n, k, a)
    if not 0 <= code < target_space(k, a):
        raise MosaicError("target code out of range")
    if k < n:
        images = _letter_swaps([code], k, a)[:, 0].tolist()  # by l
        distinct = sorted(set(images))
        count = {}  # image -> matrices with entry (0, 0) = 0 that cover it
        for lo in range(0, len(distinct), kernel.MASK_BITS):
            group = distinct[lo : lo + kernel.MASK_BITS]
            covered = 0
            for masks in kernel.enumerate_coverage(n, k, a, group):
                covered = covered + kernel.bit_counts(masks, len(group))
            count.update(zip(group, covered.tolist()))
        present = sum(count[image] for image in images)
    else:  # counted as in exact_enumeration
        present = int(k == n)
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

    It sums k^2 terms and lists no pairs, so it is refused only where the
    terms' denominator a^(2k^2), or n^(4k), which bounds their numerators'
    pair counts C(n,k)^4, exceeds 2^4096: about 0.25 s there on a 2-core Intel Xeon VM.
    """
    check_sizes(n, k, a)
    if n < k:
        raise MosaicError("n must be >= k")
    if power_exceeds(a, 2 * k * k, 2**4096) or power_exceeds(n, 4 * k, 2**4096):
        raise MosaicError("exact Suen inputs: a^(2k^2) or n^(4k) exceeds 2^4096")
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
    check_sizes(a=a)
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
    check_sizes(k=k)
    return oneD_count_collections(seq, a) >= k


def oneD_missing_count(seq, k: int, a: int) -> int:
    """Number of length-k words not embeddable as subsequences: a^k minus the
    distinct length-k subsequences, counted in one pass.  With d[j] the
    distinct length-j subsequences of the letters read so far, letter x adds
    d[j-1] of them ending in x, less the e[j-1] already counted, where e is d
    just before x's previous occurrence (0 if none)."""
    check_sizes(k=k, a=a)
    d, before = [1] + [0] * k, {}  # before[x]: d just before x's last occurrence
    for x in seq:
        if not 0 <= x < a:
            raise MosaicError(f"letter {x} outside alphabet [0, {a})")
        e, before[x] = before.get(x, [0] * k), d
        d = [1] + [d[j] + d[j - 1] - e[j - 1] for j in range(1, k + 1)]
    return a**k - d[k]


def oneD_exhaustive_mean_missing(n: int, k: int, a: int) -> Fraction:
    """Mean missing-word count over all a^n sequences, exact; the independent
    oracle for the binomial-tail formula.

    For each word the greedy matcher reads every sequence a letter at a time,
    but prefixes that matched the same number of the word's letters have the
    same future, so it keeps only counts[m], how many prefixes matched m.
    """
    check_sizes(k=k, a=a)
    if n < 0:
        raise MosaicError(f"n must be >= 0, got {n}")
    if power_exceeds(a, n, ENUMERATION_GUARD):
        raise MosaicError("sequence space exceeds guard")
    total = a**n
    grand = 0
    for code in range(a**k):
        word = [(code // a ** (k - 1 - t)) % a for t in range(k)]
        counts = [1] + [0] * k
        for _ in range(n):
            extended = [0] * (k + 1)
            for matched, count in enumerate(counts):
                for letter in range(a):
                    extended[matched + (matched < k and letter == word[matched])] += count
            counts = extended
        grand += total - counts[k]
    return Fraction(grand, total)
