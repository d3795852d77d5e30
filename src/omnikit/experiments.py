"""Monte-Carlo estimation, exact small-case enumeration oracles, and 1-D
omni sequence tooling.

Reproducibility: trial t of a run seeded with s draws its matrix with
``trial_rng(s, t).integers(0, a, size=(n, n))``, i.e. from
default_rng(SeedSequence([s, t])).  ``trial_matrices`` computes that stream
for a block of trials at once, bit for bit: numpy's SeedSequence hashing,
PCG64 seeding and output, and Lemire's bounded integers, vectorized over t.
It falls back to ``trial_rng`` per trial where numpy takes another path:
a > 2^32 (64-bit bounded integers), t >= 2^32 (two entropy words), and any
trial in which Lemire's method rejects a draw; and for n > 31 or blocks of
fewer than 20 trials, where one generator per trial is faster than emulating
PCG64 in jump-ahead lanes.
Results are aggregated as integer counts, so estimates are identical for any
worker count and partitioning.  Exact probabilities are kept as integer
counts over a^(n*n) until display.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, check_sizes, power_exceeds, target_space

ENUMERATION_GUARD = 2**25
# Predicted work (kernel.trial_cost word-steps) that pays for one pool worker.
# On a 2-core VM a two-worker pool took 2.5 ms to start and join with empty
# parts; with real parts two workers broke even with one near 40 M word-steps
# of work at (12,3,2) and (16,2,3), about 20 ms, and stayed within the spread
# between runs of one worker from 50 M to 130 M at (4,2,2).
POOL_FLOOR = 20_000_000
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
        if self.seed < 0:
            raise MosaicError(f"seed must be >= 0, got {self.seed}")
        check_sizes(self.n, self.k, self.a)
        target_space(self.k, self.a)
        # a trial's codes are held at once, so they share the enumeration guard;
        # so is its automaton state, C(n,k) * kernel.level_bytes(k, a) bytes,
        # under 8 * CODE_COST * C(n,k)^2 / n wherever kernel.distinct_counts picks it
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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator of trial ``trial``; defines the stream ``trial_matrices`` computes."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR 128/64)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_HI, _PCG_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
# PCG64 is drawn in lanes: each lane jumps to its first step at once and then
# takes at most _LANE_STEPS steps (8 was fastest of 4 to 16), so a block of
# trials takes the same number of numpy operations at any n.  A block holds
# about CHUNK cells, so its cost per trial grows with n^2; on a 2-core VM it
# was 5.9 us at n = 24 and met trial_rng's ~10.5 us a trial at n = 32
_LANE_STEPS = 8
_VECTOR_CELLS = 961
# A block of lanes costs about 170-200 us whatever its trial count, and
# trial_rng about 9-10 us a trial; they broke even at 20 trials at n = 4 and
# at 23-29 for 8 <= n <= 31, so a block of fewer trials draws one generator each
_LANE_TRIALS = 20


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; each call advances the hash constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _mul_add(hi, lo, mult_hi, mult_lo, add_hi, add_lo):
    """(hi, lo) * (mult_hi, mult_lo) + (add_hi, add_lo) mod 2^128, on (high,
    low) uint64 words; every operand is an array or scalar that broadcasts."""
    # high word of lo * mult_lo, from 32-bit halves; no partial sum overflows
    x0, x1 = lo & _M32, lo >> 32
    m0, m1 = mult_lo & _M32, mult_lo >> 32
    t = x1 * m0 + (x0 * m0 >> 32)
    u = x0 * m1 + (t & _M32)
    carry = x1 * m1 + (t >> 32) + (u >> 32)
    prod_lo = lo * mult_lo
    new_lo = prod_lo + add_lo
    new_hi = carry + lo * mult_hi + hi * mult_lo + add_hi
    return new_hi + (new_lo < prod_lo), new_lo


@lru_cache(maxsize=64)
def _lane_jumps(lanes: int, length: int) -> tuple[np.ndarray, ...]:
    """(A high, A low, C high, C low) [lanes] words: lane b starts at
    A * state + C * inc mod 2^128, m = 1 + b * length PCG64 steps on, where
    A = M^m and C = sum of M^i over i < m (M the multiplier)."""
    mask = (1 << 128) - 1
    a, c = _PCG_MULT, 1  # one step: state * M + inc
    jumps = []
    for step in range(1 + (lanes - 1) * length):
        if step % length == 0:
            jumps.append((a, c))
        a, c = a * _PCG_MULT & mask, (c * _PCG_MULT + 1) & mask
    words = tuple(
        np.array([v >> shift & (1 << 64) - 1 for v in values], dtype=np.uint64)
        for values in zip(*jumps)
        for shift in (64, 0)
    )
    for array in words:
        array.flags.writeable = False  # shared by every caller
    return words


def trial_matrices(seed: int, lo: int, hi: int, n: int, a: int) -> np.ndarray:
    """[hi - lo, n, n] int64 stack of trial_rng(seed, t).integers(0, a, size=(n, n))
    for t in [lo, hi), computed across t with numpy and bit-identical to it."""
    count = hi - lo
    lanes_pay = count >= _LANE_TRIALS and n * n <= _VECTOR_CELLS
    if seed < 0 or a > 1 << 32 or hi > 1 << 32 or not lanes_pay:
        return np.array(
            [trial_rng(seed, t).integers(0, a, size=(n, n)) for t in range(lo, hi)],
            dtype=np.int64,
        ).reshape(count, n, n)
    # SeedSequence([seed, t]): entropy words mixed into the pool, then
    # generate_state(4, uint64) = (initstate high, low, initseq high, low)
    entropy = [
        np.full(count, seed >> shift & _M32, np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ] + [np.arange(lo, hi, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    init_hi, init_lo, seq_hi, seq_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64 srandom_r: inc = initseq << 1 | 1; state = inc + initstate; step.
    # Draw j comes from the state 2 + j steps past inc + initstate, so lane b,
    # which draws j = b * length + i for i < length, starts 1 + b * length steps on
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    st_lo = inc_lo + init_lo
    st_hi = inc_hi + init_hi + (st_lo < inc_lo)
    steps = (n * n + 1) // 2
    lanes = -(-steps // _LANE_STEPS)
    length = -(-steps // lanes)
    if lanes == 1:
        st_hi, st_lo = _mul_add(st_hi, st_lo, _PCG_HI, _PCG_LO, inc_hi, inc_lo)
    else:
        a_hi, a_lo, c_hi, c_lo = (j[:, None] for j in _lane_jumps(lanes, length))
        add_hi, add_lo = _mul_add(inc_hi, inc_lo, c_hi, c_lo, 0, 0)
        st_hi, st_lo = _mul_add(st_hi, st_lo, a_hi, a_lo, add_hi, add_lo)
    # (high, low) words of each draw's state, in draw order [count, lanes, length];
    # the lanes' states are [lanes, count], so that every operation runs along t
    high, low = np.empty((2, count, lanes, length), dtype=np.uint64)
    high_by_lane, low_by_lane = high.transpose(1, 0, 2), low.transpose(1, 0, 2)
    for i in range(length):
        st_hi, st_lo = _mul_add(st_hi, st_lo, _PCG_HI, _PCG_LO, inc_hi, inc_lo)
        high_by_lane[..., i], low_by_lane[..., i] = st_hi, st_lo
    # XSL-RR output, in the state buffers: high ^ low rotated right by high >> 58
    rot = np.right_shift(high, 58, out=np.empty(high.shape, np.uint8), casting="unsafe")
    x = np.bitwise_xor(high, low, out=low)
    left = np.left_shift(x, -rot & 63, out=high)
    x >>= rot
    x |= left
    # Generator.integers: Lemire's multiply-shift on each 32-bit half, low
    # half first; a draw whose low word is below 2^32 mod a is rejected and
    # redrawn, so that trial is redone whole
    halves = x.astype("<u8", copy=False).view("<u4").reshape(count, -1)[:, : n * n]
    scaled = np.multiply(halves, np.uint64(a), dtype=np.uint64)
    threshold = (1 << 32) % a
    rejected = ((scaled & _M32) < threshold).any(axis=1) if threshold else ()
    scaled >>= 32
    cells = scaled.view(np.int64).reshape(count, n, n)
    for i in np.flatnonzero(rejected).tolist():
        cells[i] = trial_rng(seed, lo + i).integers(0, a, size=(n, n))
    return cells


def _run_trials(config: ExperimentConfig, lo: int, hi: int) -> tuple[int, int, int]:
    """(omni count, sum of missing counts, sum of squared missing counts)."""
    n, k, a = config.n, config.k, config.a
    total = target_space(k, a)
    draw = max(1, kernel.CHUNK // (n * n))  # trials drawn at once: about CHUNK cells
    omni = s1 = s2 = 0
    for block_lo in range(lo, hi, draw):
        block = trial_matrices(config.seed, block_lo, min(block_lo + draw, hi), n, a)
        distinct = kernel.distinct_counts(block, k, a)
        # no int64 overflow: distinct <= min(4^n, 2^25) (C(n,k)^2, under the config
        # guard) and a block holds <= CHUNK/n^2 trials, so distinct @ distinct < 2^59
        m, sd, sdd = len(distinct), int(distinct.sum()), int(distinct @ distinct)
        omni += int(np.count_nonzero(distinct == total))
        s1 += m * total - sd
        s2 += m * total * total - 2 * total * sd + sdd
    return omni, s1, s2


def _worker_count(config: ExperimentConfig, workers: int) -> int:
    """How many workers ``estimate`` starts: at most ``workers``, one per CPU
    and one per trial, and only as many as each get POOL_FLOOR of predicted
    work (``kernel.trial_cost``); at least one."""
    if workers < 1:
        raise MosaicError(f"workers must be >= 1, got {workers}")
    work = config.trials * kernel.trial_cost(config.n, config.k, config.a)
    return max(1, min(workers, os.cpu_count() or 1, config.trials, work // POOL_FLOOR))


def estimate(config: ExperimentConfig, workers: int = 1) -> MissingStats:
    """Monte-Carlo estimate of P(omni) and E(missing targets) over random matrices.

    Runs on ``_worker_count(config, workers)`` workers, in this process when
    that is one; the counts do not depend on the worker count.
    """
    t = config.trials
    workers = _worker_count(config, workers)
    if workers == 1:
        parts = [_run_trials(config, 0, t)]
    else:
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


def exact_enumeration(n: int, k: int, a: int) -> MissingStats:
    """Iterate every a^(n*n) matrix; exact P(omni), E(X) and per-target missing
    probabilities as rationals."""
    total_matrices = _check_enumeration_guard(n, k, a)
    total_targets = target_space(k, a)
    if total_targets > _MASK_BITS:
        raise MosaicError("too many targets for exhaustive per-matrix masks")
    omni = 0
    if k < n:
        full = (1 << total_targets) - 1
        covered = 0
        for masks in kernel.enumerate_coverage(n, k, a, range(total_targets)):
            omni += int(np.count_nonzero(masks == full))
            covered = covered + kernel.bit_counts(masks, total_targets)
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
    targets."""
    total_matrices = _check_enumeration_guard(n, k, a)
    if not 0 <= code < target_space(k, a):
        raise MosaicError("target code out of range")
    if k < n:
        present = sum(
            int(np.count_nonzero(block)) for block in kernel.enumerate_coverage(n, k, a, [code])
        )
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
    oracle for the binomial-tail formula.

    For each word the greedy matcher reads every sequence a letter at a time,
    but prefixes that matched the same number of the word's letters have the
    same future, so it keeps only counts[m], how many prefixes matched m.
    """
    total = a**n
    if total > ENUMERATION_GUARD:
        raise MosaicError("sequence space exceeds guard")
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
