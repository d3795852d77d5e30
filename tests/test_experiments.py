import collections
import concurrent.futures
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnikit import bounds, experiments
from omnikit.core import MosaicError, MosaicMatrix, decode_target, encode_target, symmetries
from omnikit.experiments import (
    ExperimentConfig,
    conjecture_table,
    estimate,
    exact_enumeration,
    exact_suen_inputs,
    exact_target_missing_probability,
    oneD_count_collections,
    oneD_exhaustive_mean_missing,
    oneD_is_omni,
    oneD_missing_count,
)
from omnikit.verify import coverage, is_omnimosaic


class TestExactEnumeration:
    def test_n2_no_omni(self):
        stats = exact_enumeration(2, 2, 2)
        assert stats.p_omni_exact == 0
        # a single placement misses 15 of 16 targets, always
        assert stats.ex_missing_exact == 15

    def test_n3_no_omni(self):
        # 9 placements < 16 targets: P(omni) = 0 but E(X) is nontrivial
        stats = exact_enumeration(3, 2, 2)
        assert stats.p_omni_exact == 0
        assert 16 - 9 <= stats.ex_missing_exact < 15

    def test_n4_reference_values(self):
        stats = exact_enumeration(4, 2, 2)
        assert stats.p_omni_exact == Fraction(181, 8192)
        assert stats.ex_missing_exact == Fraction(67603, 16384)
        assert stats.per_target[15] == stats.per_target[0]

    def test_per_target_sums_to_expectation(self):
        stats = exact_enumeration(3, 2, 2)
        assert sum(stats.per_target.values()) == stats.ex_missing_exact

    def test_single_target_agrees(self):
        stats = exact_enumeration(4, 2, 2)
        for code in range(16):
            assert (
                exact_target_missing_probability(4, 2, 2, code)
                == stats.per_target[code]
            )

    def test_letter_symmetry_of_per_target(self):
        # complementing every letter maps code c to 15 - c (a=2, k=2)
        stats = exact_enumeration(4, 2, 2)
        for code in range(16):
            assert stats.per_target[code] == stats.per_target[15 - code]

    def test_transpose_symmetry_of_per_target(self):
        stats = exact_enumeration(4, 2, 2)
        for code in range(16):
            # the transpose of [[e00, e01], [e10, e11]] swaps e01 and e10
            e00, e01, e10, e11 = ((code >> s) & 1 for s in (3, 2, 1, 0))
            tcode = encode_target(MosaicMatrix.from_rows([[e00, e10], [e01, e11]], 2))
            assert stats.per_target[code] == stats.per_target[tcode]

    @pytest.mark.parametrize("n", [3, 4])
    def test_per_target_invariant_under_symmetries(self, n):
        per_target = exact_enumeration(n, 2, 2).per_target
        for code, p in per_target.items():
            for image in symmetries(decode_target(code, 2, 2)):
                assert per_target[encode_target(image)] == p

    def test_brute_force_cross_check_p_omni(self):
        # independent oracle on the full 2^9 space
        omni = sum(
            is_omnimosaic(MosaicMatrix(3, 3, 2, e), 2).is_omni
            for e in itertools.product(range(2), repeat=9)
        )
        assert exact_enumeration(3, 2, 2).p_omni_exact == Fraction(omni, 512)

    @pytest.mark.parametrize(
        "n,k,a", [(3, 2, 2), (3, 1, 3), (2, 2, 2), (1, 1, 3), (2, 1, 4), (2, 1, 5)]
    )
    def test_per_target_brute_force(self, n, k, a):
        # independent oracle: verify.coverage of every matrix, one at a time;
        # at a >= 3 the letter swaps that give the matrices whose entry (0, 0)
        # is not 0 send a code to several different codes
        missing = dict.fromkeys(range(a ** (k * k)), 0)
        omni = 0
        for e in itertools.product(range(a), repeat=n * n):
            bits = coverage(MosaicMatrix(n, n, a, e), k)
            omni += bool(bits.all())
            for code in missing:
                missing[code] += not bits[code]
        total = a ** (n * n)
        stats = exact_enumeration(n, k, a)
        assert stats.per_target == {code: Fraction(m, total) for code, m in missing.items()}
        assert stats.p_omni_exact == Fraction(omni, total)

    def test_5_2_2_reference_value(self):
        # values recorded from the per-placement enumeration and from a count of
        # every mask bit by np.bincount, two independent earlier implementations
        stats = exact_enumeration(5, 2, 2)
        assert stats.p_omni_exact == Fraction(562325, 1048576)
        assert stats.ex_missing_exact == Fraction(3440331, 4194304)
        runs = [(Fraction(286737, 4194304), [0, 15]), (Fraction(11097, 262144), [3, 5, 10, 12]),
                (Fraction(431329, 8388608), [6, 9]),
                (Fraction(215665, 4194304), [1, 2, 4, 7, 8, 11, 13, 14])]
        assert stats.per_target == {code: p for p, codes in runs for code in codes}

    def test_single_target_beyond_mask_guard(self):
        # 81 and 512 targets: too many for masks, fine for one target
        # code 80 of (3,2,3) has no letter 0, so letters 1 and 2 swap it
        for n, k, a, codes in [(3, 2, 3, (0, 17, 41, 80)), (3, 3, 2, (0, 100, 511))]:
            missing = dict.fromkeys(codes, 0)
            for e in itertools.product(range(a), repeat=n * n):
                bits = coverage(MosaicMatrix(n, n, a, e), k)
                for code in codes:
                    missing[code] += not bits[code]
            for code in codes:
                assert exact_target_missing_probability(n, k, a, code) == Fraction(
                    missing[code], a ** (n * n)
                )

    @pytest.mark.parametrize("a", [65, 76])
    def test_single_target_images_past_64(self, monkeypatch, a):
        # code 0 has a images, one per letter: too many for one 64-bit mask
        calls = _spy(monkeypatch, "enumerate_coverage")
        assert exact_target_missing_probability(2, 1, a, 0) == Fraction(a - 1, a) ** 4
        assert [args for _, args in calls] == [(2, 1, a, list(range(64))),
                                               (2, 1, a, list(range(64, a)))]

    def test_k_exceeds_n_misses_everything(self):
        stats = exact_enumeration(1, 2, 2)
        assert stats.p_omni_exact == 0
        assert stats.ex_missing_exact == 16
        assert exact_target_missing_probability(2, 3, 2, 5) == 1

    @pytest.mark.parametrize("n,k,a", [(1, 1, 3), (2, 2, 2), (1, 2, 2), (5, 5, 2), (3, 4, 2)])
    def test_k_at_least_n_is_counted_not_enumerated(self, monkeypatch, n, k, a):
        # k = n: each matrix covers only itself; k > n: nothing
        calls = _spy(monkeypatch, "enumerate_coverage")
        total = a ** (n * n)
        missing = Fraction(total - (k == n), total)
        assert exact_target_missing_probability(n, k, a, a ** (k * k) - 1) == missing
        if a ** (k * k) <= 64:
            stats = exact_enumeration(n, k, a)
            assert stats.p_omni_exact == 0
            assert set(stats.per_target.values()) == {missing}
        assert calls == []
        exact_target_missing_probability(2, 1, 2, 0)  # k < n enumerates the code's images
        assert calls == [("enumerate_coverage", (2, 1, 2, [0, 1]))]

    def test_guards(self):
        with pytest.raises(MosaicError):
            exact_enumeration(6, 2, 2)  # 2^36 matrices
        with pytest.raises(MosaicError):
            exact_enumeration(3, 3, 2)  # 512 targets > 64-bit masks
        for k in (0, -1):
            with pytest.raises(MosaicError):
                exact_enumeration(3, k, 2)
            with pytest.raises(MosaicError):
                exact_target_missing_probability(3, k, 2, 0)
        with pytest.raises(MosaicError):
            exact_target_missing_probability(6, 2, 2, 0)


class TestConjectureTable:
    def test_4_2_2(self):
        rep = conjecture_table(4, 2, 2)
        assert rep.monochromatic_codes == [0, 15]
        assert rep.maximal_all_monochromatic
        codes = [c for c, _ in rep.table]
        probs = [p for _, p in rep.table]
        assert probs == sorted(probs, reverse=True)
        assert set(codes) == set(range(16))

    def test_carries_its_enumeration(self):
        rep = conjecture_table(4, 2, 2)
        assert rep.stats.p_omni_exact == Fraction(181, 8192)
        assert dict(rep.table) == rep.stats.per_target

    def test_3_1_3_monochromatic_codes(self):
        # k=1: every target is monochromatic by definition
        rep = conjecture_table(3, 1, 3)
        assert rep.monochromatic_codes == [0, 1, 2]
        assert rep.maximal_all_monochromatic


class TestExactSuenInputs:
    def test_4_2_2_values(self):
        mu, delta_big, delta_small = exact_suen_inputs(4, 2, 2)
        assert mu == Fraction(9, 4)  # C(4,2)^2 / 16
        assert delta_big == Fraction(9, 2)
        assert delta_small == Fraction(3, 2)

    def test_delta_brute_force(self):
        # sum joint probabilities over all unordered pairs of distinct
        # placements for the all-zero target, directly
        n, k, a = 4, 2, 2
        placements = [
            (rows, cols)
            for rows in itertools.combinations(range(n), k)
            for cols in itertools.combinations(range(n), k)
        ]
        total = Fraction(0)
        for i, (r1, c1) in enumerate(placements):
            for r2, c2 in placements[i + 1 :]:
                cells = set((x, y) for x in r1 for y in c1) | set(
                    (x, y) for x in r2 for y in c2
                )
                rr = len(set(r1) & set(r2))
                cc = len(set(c1) & set(c2))
                if rr == 0 or cc == 0:
                    continue  # independent: not in the dependency graph
                total += Fraction(1, a ** len(cells))
        assert exact_suen_inputs(n, k, a)[1] == total

    @staticmethod
    def _suen_bound(mu, delta_big, delta_small) -> float:
        exponent = float(-mu + delta_big * math.exp(2 * float(delta_small)))
        return 1.0 if exponent >= 0 else math.exp(exponent)

    def test_suen_inequality_ground_truth_4_2_2(self):
        bound = self._suen_bound(*exact_suen_inputs(4, 2, 2))
        truth = exact_target_missing_probability(4, 2, 2, 0)
        assert float(truth) <= bound

    @pytest.mark.slow
    def test_suen_inequality_ground_truth_5_2_2(self):
        bound = self._suen_bound(*exact_suen_inputs(5, 2, 2))
        truth = exact_target_missing_probability(5, 2, 2, 0)
        assert float(truth) <= bound

    # refused past 2^4096: a^(2k^2) at (150,150,2) and (60,46,2), and n^(4k)
    # at (10^100,24,2).  A guard on C(n,k)^4 alone would admit (150,150,2),
    # 2.8 s, and refuse (45684,24,2), 16 ms
    def test_guard(self):
        for n, k, a in [(150, 150, 2), (60, 46, 2), (10**100, 24, 2)]:
            with pytest.raises(MosaicError, match="exceeds 2"):
                exact_suen_inputs(n, k, a)
        for n, k, a in [(4, 0, 2), (4, 2, 1), (0, 1, 2)]:  # k < 1, a < 2, n < 1
            with pytest.raises(MosaicError, match="must be >="):
                exact_suen_inputs(n, k, a)

    def test_refuses_k_past_n(self):
        # as bounds.suen_report does, before math.comb(n - k, k) sees a negative n - k
        with pytest.raises(MosaicError, match="n must be >= k"):
            exact_suen_inputs(3, 5, 2)

    def test_admits_the_size_the_suen_bound_certifies(self):
        mu, delta_big, delta_small = exact_suen_inputs(45684, 24, 2)
        assert mu == Fraction(math.comb(45684, 24) ** 2, 2**576)
        overlapping = (math.comb(45684, 24) - math.comb(45660, 24)) ** 2 - 1
        assert delta_small == Fraction(overlapping, 2**576)
        assert 0 < delta_big


class TestMonteCarlo:
    def test_trial_size_guard_fires_before_allocation(self, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the size guard")

        for name in ("zeros", "empty", "array"):
            monkeypatch.setattr(np, name, no_alloc)
        monkeypatch.setattr(experiments.kernel, "subsets", no_alloc)
        # C(200,5)^2 ~ 6e18 and C(100,3)^2 ~ 2.6e10 codes in one trial
        for n, k in [(200, 5), (100, 3)]:
            with pytest.raises(MosaicError, match="per trial"):
                ExperimentConfig(n=n, k=k, a=2, trials=1)
        for n, k, a in [(12, 3, 2), (48, 1, 400)]:  # 48 400 and 2 304 codes
            ExperimentConfig(n=n, k=k, a=a, trials=1)

    def test_deterministic_across_workers(self, monkeypatch):
        # above the floor, so two workers start; parts split by trials
        config = ExperimentConfig(n=4, k=2, a=2, trials=140_000, seed=7)
        assert config.trials * experiments.trial_cost(4, 2, 2) >= 2 * experiments.POOL_FLOOR
        started = []
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recorded_pool(started))
        assert estimate(config, workers=4) == estimate(config, workers=1)
        assert started == [2]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a pool starts all its workers at once, so the fake one records how
        # many were asked for
        asked = []
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(asked))
        config = ExperimentConfig(n=4, k=2, a=2, trials=250_000, seed=7)
        assert config.trials * experiments.trial_cost(4, 2, 2) >= 3 * experiments.POOL_FLOOR
        assert estimate(config, workers=100) == estimate(config, workers=1)
        assert asked == [3]

    # each below the floor of predicted work for a second worker: starting
    # the pool would cost more than it saves
    @pytest.mark.parametrize("n,k,a,trials", [(12, 3, 2, 400), (4, 2, 2, 10_000), (6, 3, 6, 50)])
    def test_small_jobs_run_in_process(self, monkeypatch, n, k, a, trials):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        config = ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=3)
        assert estimate(config, workers=2) == estimate(config, workers=1)

    def test_worker_count_reads_no_clock(self, monkeypatch):
        def no_clock(*args):
            raise AssertionError("read a clock")

        for name in ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
                     "monotonic_ns", "process_time", "process_time_ns", "thread_time",
                     "thread_time_ns"):
            monkeypatch.setattr(time, name, no_clock)
        _cpus(monkeypatch, 2)
        # (10,3,3)x300 has work for two workers inside one block, which ends early
        sizes = {(12, 3, 2, 400): 1, (4, 2, 2, 10_000): 1, (6, 3, 6, 50): 1,
                 (8, 3, 2, 20_000): 2, (4, 2, 2, 100_000): 1, (4, 2, 2, 200_000): 2,
                 (12, 3, 2, 4_000): 2, (10, 3, 3, 300): 2}
        for (n, k, a, trials), want in sizes.items():
            config = ExperimentConfig(n=n, k=k, a=a, trials=trials)
            assert experiments._worker_count(config, 2) == want, (n, k, a, trials)
            assert experiments._worker_count(config, 8) == want
            assert experiments._worker_count(config, 1) == 1

    def test_worker_count_reads_the_cpus_the_process_may_use(self, monkeypatch):
        # (28,3,4)x30 has work for 128 workers; the machine has 8 CPUs, and
        # the process may run on fewer
        config = ExperimentConfig(n=28, k=3, a=4, trials=30)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiments._worker_count(config, 8) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert experiments._worker_count(config, 8) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS
        assert experiments._worker_count(config, 8) == 8

    def test_one_block_splits_between_workers(self, monkeypatch):
        # work for six workers inside one block of the stream, which ends
        # early: the workers split its trials, one per CPU
        config = ExperimentConfig(n=12, k=3, a=3, trials=340, seed=6)
        assert config.trials * experiments.trial_cost(12, 3, 3) >= 6 * experiments.POOL_FLOOR
        assert experiments.block_size(12) == 455
        started = []
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recorded_pool(started))
        runs = [estimate(config, workers=w) for w in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]
        assert started == [2, 4]

    # Stream 2 values at seed 2024 (and seed 0 at (6,3,6)), recorded from
    # _oracle_estimate: test_golden_values_match_the_oracle checks them there
    GOLDEN = [
        (12, 3, 2, 400, (400, 0.99, 0.004974937185533102, 0.0325, 0.020424305511793975)),
        (4, 2, 2, 2000, (2000, 0.0265, 0.0035915003828483716, 4.071, 0.04964082599839472)),
    ]
    # these sizes take the subsequence automaton (kernel.covered_counts)
    GOLDEN_AUTOMATON = [
        (10, 3, 2, 300, (300, 0.38, 0.0280237994093116, 3.0633333333333335,
                         0.26213676182984796)),
        (16, 2, 3, 300, (300, 1.0, 0.0, 0.0, 0.0)),
        (10, 2, 3, 300, (300, 0.9966666666666667, 0.0033277731404159692,
                         0.0033333333333333335, 0.0033333333333333335)),
    ]
    # (6,3,6)x50: a trial's C(6,3)^2 codes are fewer than its 6^9 targets, so
    # they are deduplicated by sorting
    GOLDEN_SORTED = [
        (0, (50, 0.0, 0.0, 10077307.34, 2.6748259527586127)),
        (2024, (50, 0.0, 0.0, 10077305.48, 1.5096965501283321)),
    ]

    @pytest.mark.parametrize("n,k,a,trials,seed,expected", [
        *[(n, k, a, trials, 2024, want) for n, k, a, trials, want in GOLDEN + GOLDEN_AUTOMATON],
        *[(6, 3, 6, 50, seed, want) for seed, want in GOLDEN_SORTED],
    ])
    def test_golden_values_match_the_oracle(self, n, k, a, trials, seed, expected):
        assert _oracle_estimate(n, k, a, trials, seed) == expected

    @pytest.mark.parametrize("n,k,a,trials,expected", GOLDEN)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates(self, n, k, a, trials, expected, workers):
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=2024),
                         workers=workers)
        assert _fields(stats) == expected

    @pytest.mark.parametrize("n,k,a,trials,expected", GOLDEN_AUTOMATON)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates_on_the_automaton(self, monkeypatch, n, k, a, trials, expected,
                                               workers):
        calls = _spy(monkeypatch, "covered_counts")
        experiments._run_trials(ExperimentConfig(n=n, k=k, a=a, trials=1), 0, 1)
        assert calls
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=2024),
                         workers=workers)
        assert _fields(stats) == expected

    @pytest.mark.parametrize("seed,expected", GOLDEN_SORTED)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates_without_a_bitset(self, seed, expected, workers):
        assert math.comb(6, 3) ** 2 < 6**9
        stats = estimate(ExperimentConfig(n=6, k=3, a=6, trials=50, seed=seed), workers=workers)
        assert _fields(stats) == expected

    # kernel.path_costs prices a trial as one of the trials one automaton part
    # holds: per row subset, the bytes each column touches (one element of a
    # shift-OR level, one slot and two index words of a scatter level), the
    # zero-fill of its B bytes of levels and the reduction of its top level,
    # at 8 bytes a word-step, plus LEVEL_COST per level, column and part,
    # against CODE_COST per code; B = 3 at (k, a) = (2, 2), 34 at (2, 4), 73 at
    # (3, 2), 3028 at (3, 3), 8738 at (4, 2), 1312 at (2, 9), 33 288 at
    # (3, 4), 520 at (2, 8).  The direct path sorts a trial's C(n,k)^2 codes
    # when they are fewer than its a^(k*k) targets, and takes the bitset
    # when not.
    PATHS = {
        (12, 3, 2): "covered_counts", (10, 3, 2): "covered_counts",
        (14, 3, 2): "covered_counts", (16, 2, 3): "covered_counts",
        (20, 3, 2): "covered_counts", (4, 2, 2): "covered_counts",
        (5, 2, 2): "covered_counts", (8, 2, 3): "covered_counts",
        (9, 2, 4): "covered_counts", (6, 2, 5): "covered_counts",
        (8, 3, 2): "covered_counts", (4, 3, 2): "covered_counts",
        # 0.73, 0.019, 0.062, 0.0015, 0.0008 and 0.024 codes per target
        (10, 3, 3): "_sorted_counts", (7, 4, 2): "_sorted_counts",
        (7, 3, 3): "_sorted_counts", (6, 3, 4): "_sorted_counts",
        (4, 3, 3): "_sorted_counts", (5, 2, 8): "_sorted_counts",
        # 1.2 and 1.7 codes per target; at (11,4,2) the automaton, forced on
        # the same trials, was 1.3x faster: its run slots are priced high
        (16, 3, 4): "covered", (11, 4, 2): "covered",
    }
    # moved by the per-level price: the automaton, forced on the same trials,
    # was faster at the first four and slower at (2,2,4), one code a trial
    REFIT = {(12, 2, 9): "covered_counts", (20, 2, 9): "covered_counts",
             (12, 3, 3): "covered_counts", (14, 2, 9): "covered_counts",
             (2, 2, 4): "_sorted_counts"}

    @pytest.mark.parametrize("n,k,a,automaton", [
        (*size, path == "covered_counts") for size, path in (PATHS | REFIT).items()
    ])
    def test_path_rule_and_both_paths_agree(self, monkeypatch, n, k, a, automaton):
        # kernel.distinct_counts takes one path; the automaton, the bitset and
        # sorting must give the same counts
        kernel = experiments.kernel
        arrs = np.random.default_rng(31).integers(0, a, size=(6, n, n))
        calls = _spy(monkeypatch, "covered_counts", "covered", "_sorted_counts")
        got = kernel.distinct_counts(arrs, k, a).tolist()
        assert {name for name, _ in calls} == {(self.PATHS | self.REFIT)[n, k, a]}
        assert kernel.covered_counts(arrs, k, a).tolist() == got
        assert np.count_nonzero(kernel.covered(arrs, k, a), axis=1).tolist() == got
        assert kernel._sorted_counts(arrs, k, a).tolist() == got
        if automaton:  # an automaton priced above the direct path is not taken
            calls.clear()
            monkeypatch.setattr(kernel, "path_costs", lambda *args: (1, 0))
            assert kernel.distinct_counts(arrs, k, a).tolist() == got
            sparse = math.comb(n, k) ** 2 < a ** (k * k)
            assert {name for name, _ in calls} == {"_sorted_counts" if sparse else "covered"}

    @pytest.mark.parametrize("n,k,a", [(10, 3, 2), (16, 2, 3), (5, 2, 8), (14, 2, 9), (11, 4, 2)])
    @pytest.mark.parametrize("chunk", ["8", "3 trials"])
    def test_automaton_steps_are_bounded(self, monkeypatch, n, k, a, chunk):
        # a step holds max(32 * CHUNK, one row subset's) bytes of automaton
        # levels on the automaton, and max(8 * CHUNK, one trial's) bytes of
        # codes at 8 bytes each on either direct path
        kernel = experiments.kernel
        arrs = np.random.default_rng(5).integers(0, a, size=(10, n, n))
        want = kernel.distinct_counts(arrs, k, a).tolist()
        path = (self.PATHS | self.REFIT)[n, k, a]
        automaton = path == "covered_counts"
        if automaton:
            name, budget, unit = "_automaton_part", 32, sum(  # bytes of a row subset
                dtype.itemsize * units * width
                for _, dtype, units, width in kernel.automaton_levels(k, a))
            per_trial = math.comb(n, k) * unit
        else:
            name, budget = path, 8
            unit = per_trial = 8 * math.comb(n, k) ** 2
        monkeypatch.setattr(kernel, "CHUNK", 8 if chunk == "8" else 3 * per_trial // budget + 1)
        # forced, since parts of a smaller CHUNK cost more
        monkeypatch.setattr(kernel, "path_costs", lambda *args: (1 - automaton, automaton))
        real_part = kernel._automaton_part
        calls = _spy(monkeypatch, "covered_counts", "covered", "_sorted_counts", "_automaton_part")
        assert kernel.distinct_counts(arrs, k, a).tolist() == want
        assert {called for called, _ in calls} == {path, name}
        if automaton:  # by_col [c, r, t] and a batch of row subsets
            held = [args[0].shape[2] * len(args[1]) * unit for called, args in calls
                    if called == name]
        else:
            held = [len(args[0]) * per_trial for _, args in calls]
        assert max(held) <= max(budget * kernel.CHUNK, unit)
        if automaton and chunk == "8":
            # a trial's row subsets stream in slices of one part's; each
            # (trial, row subset) is stepped at most once, no trial takes a
            # part after the one that fills its top level, and a trial that
            # never fills steps every row subset
            index = {arr.tobytes(): t for t, arr in enumerate(arrs.astype(np.uint8))}
            _, dtype, units, width = kernel.automaton_levels(k, a)[-1]
            acc, stepped = np.zeros((10, units * width), dtype=dtype), collections.Counter()
            for called, (by_col, rowsubs, *_) in calls:
                if called != name:
                    continue
                ts = [index[by_col[:, :, j].T.astype(np.uint8).tobytes()]
                      for j in range(by_col.shape[2])]
                assert not (np.bitwise_count(acc[ts]).sum(axis=1) == a ** (k * k)).any()
                acc[ts] |= real_part(by_col, rowsubs, k, a)
                stepped.update((t, s) for t in ts for s in map(tuple, rowsubs.tolist()))
            assert max(stepped.values()) == 1
            subsets = set(map(tuple, kernel.subsets(n, k).tolist()))
            for t in np.flatnonzero(np.array(want) < a ** (k * k)):
                assert {s for (u, s) in stepped if u == t} == subsets
            assert np.bitwise_count(acc).sum(axis=1).tolist() == want
        # at "3 trials" the automaton runs in 4 rounds, and a matrix whose
        # top level is full steps no later round
        elif automaton and a ** (k * k) in want:
            assert sum(held) < 10 * per_trial
            assert want == np.count_nonzero(kernel.covered(arrs, k, a), axis=1).tolist()
        else:
            assert sum(held) == 10 * per_trial
            assert len(held) == (10 if chunk == "8" else 4)

    @pytest.mark.parametrize("n,k,a", [(3, 5, 2), (2, 3, 128)])
    def test_k_exceeds_n_misses_everything(self, n, k, a):
        # (2,3,128): 2^63 targets, so sums of squared counts exceed 64 bits
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=3))
        total = a ** (k * k)
        assert (stats.p_omni, stats.ex_missing, stats.ex_missing_stderr) == (0, total, 0)

    def test_converges_to_exact(self):
        exact = exact_enumeration(4, 2, 2)
        config = ExperimentConfig(n=4, k=2, a=2, trials=20_000, seed=1)
        stats = estimate(config)
        assert stats.p_omni == pytest.approx(float(exact.p_omni_exact), abs=0.01)
        assert stats.ex_missing == pytest.approx(
            float(exact.ex_missing_exact), abs=0.05
        )
        assert abs(stats.p_omni - float(exact.p_omni_exact)) < 5 * max(
            stats.p_omni_stderr, 1e-4
        )
        assert abs(stats.ex_missing - float(exact.ex_missing_exact)) < 5 * max(
            stats.ex_missing_stderr, 1e-4
        )

    def test_golden_seed(self, monkeypatch):
        # trial 0 of seed 0 opens the block default_rng([0, 0]) draws, on every run
        config = ExperimentConfig(n=4, k=2, a=2, trials=1, seed=0)
        first, again = (_drawn(monkeypatch, config, 0, 1)[0] for _ in range(2))
        assert np.array_equal(first, again)
        assert np.array_equal(first, np.random.default_rng([0, 0]).integers(0, 2, size=(1, 4, 4)))

    def test_trial_rng_independent_of_partition(self, monkeypatch):
        # a trial's matrix and counts depend on the seed and its index alone,
        # not on the trials a part counts beside it; the cuts fall inside blocks
        size = experiments.block_size(12)
        config = ExperimentConfig(n=12, k=3, a=2, trials=3 * size - 5, seed=3)
        edges = [0, size // 2, size + 7, 2 * size, config.trials]
        ranges = list(zip(edges[:-1], edges[1:]))
        counts = [experiments._run_trials(config, lo, hi) for lo, hi in ranges]
        assert experiments._run_trials(config, 0, config.trials) == tuple(map(sum, zip(*counts)))
        whole = np.concatenate(_drawn(monkeypatch, config, 0, config.trials))
        parts = [part for lo, hi in ranges for part in _drawn(monkeypatch, config, lo, hi)]
        assert [len(part) for part in parts] == [size // 2, size - size // 2, 7, size - 7,
                                                 size - 5]
        assert np.array_equal(whole, np.concatenate(parts))
        assert not np.array_equal(whole[0], whole[1])

    def test_rejects_zero_trials(self):
        with pytest.raises(MosaicError):
            ExperimentConfig(n=4, k=2, a=2, trials=0)

    @given(size=st.one_of(
               st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(2, 5)),
               st.tuples(st.sampled_from([60, 100, 200]), st.just(1),
                         st.sampled_from([2, 5, 2**32 + 5]))),
           blocks=st.integers(0, 2), offset=st.integers(-2, 2),
           seed=st.integers(0, 2**130), workers=st.sampled_from([1, 2]))
    @example(size=(4, 2, 2), blocks=1, offset=1, seed=2**130, workers=2)
    @example(size=(100, 1, 5), blocks=2, offset=-1, seed=7, workers=2)
    @settings(max_examples=15, deadline=None)
    def test_estimate_matches_per_trial_draws(self, size, blocks, offset, seed, workers):
        # trial counts on both sides of a block boundary; with two workers the
        # trials are cut in half, wherever that falls, and counted in this process
        n, k, a = size
        trials = max(1, blocks * max(1, 2**16 // (n * n)) + offset)
        config = ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=seed)
        asked = []
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 2)
            mp.setattr(experiments, "POOL_FLOOR", 1)
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(asked))
            stats = estimate(config, workers=workers)
        assert _fields(stats) == _oracle_estimate(n, k, a, trials, seed)
        assert asked == ([2] if workers == 2 and trials > 1 else [])

    def test_largest_alphabet(self):
        # k = 1 admits a up to 2^63, whose draws fill all but the sign bit
        for trials in (1, 3):
            stats = estimate(ExperimentConfig(n=2, k=1, a=2**63, trials=trials, seed=4))
            assert _fields(stats) == _oracle_estimate(2, 1, 2**63, trials, 4)

    def test_stream_does_not_follow_the_kernel_chunk(self, monkeypatch):
        # the stream's blocks are its own: a kernel CHUNK of 2^12 cells would
        # draw (4,2,2) trials in blocks of 256, not 4 096
        config = ExperimentConfig(n=4, k=2, a=2, trials=5_000, seed=8)
        want = estimate(config)
        monkeypatch.setattr(experiments.kernel, "CHUNK", 1 << 12)
        assert estimate(config) == want


def _oracle_estimate(n, k, a, trials, seed):
    """(trials, p_omni, its stderr, ex_missing, its stderr) of stream 2 over
    _stream_trials; every k×k placement of every trial is listed by
    itertools.combinations and its code built entry by entry, most
    significant first."""
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    misses = []
    for m in _stream_trials(seed, 0, trials, n, a):
        codes = 0
        for i, j in itertools.product(range(k), repeat=2):
            codes = codes * a + m[subsets[:, i]][:, subsets[:, j]]
        misses.append(a ** (k * k) - len(np.unique(codes)))
    omni, s1, s2 = misses.count(0), sum(misses), sum(m * m for m in misses)
    p_hat = omni / trials
    var = (s2 - s1 * s1 / trials) / (trials - 1) if trials > 1 else 0.0
    return (trials, p_hat, math.sqrt(p_hat * (1 - p_hat) / trials), s1 / trials,
            math.sqrt(max(var, 0.0) / trials))


def _stream_trials(seed, lo, hi, n, a):
    """Trials [lo, hi) of stream 2 at side n, written out: block b of
    B = max(1, 2^16 // n^2) trials is default_rng([seed, b]).integers(0, a,
    size=(B, n, n)), drawn whole, and trial t is entry t mod B of block t // B."""
    size = max(1, 2**16 // (n * n))
    blocks = [np.random.default_rng([seed, b]).integers(0, a, size=(size, n, n), dtype=np.int64)
              for b in range(lo // size, -(-hi // size))]
    return np.concatenate(blocks)[lo % size:][:hi - lo]


def _drawn(monkeypatch, config, lo, hi):
    """The arrays experiments._run_trials counts for trials [lo, hi) of
    config's run, in order; a stand-in for kernel.distinct_counts records
    them and counts nothing."""
    drawn = []

    def record(block, k, a):
        drawn.append(block)
        return np.zeros(len(block), dtype=np.int64)

    monkeypatch.setattr(experiments.kernel, "distinct_counts", record)
    experiments._run_trials(config, lo, hi)
    return drawn


def _fields(stats):
    return (stats.trials, stats.p_omni, stats.p_omni_stderr, stats.ex_missing,
            stats.ex_missing_stderr)


def _recorded_pool(started):
    """ProcessPoolExecutor that records each pool's worker count in ``started``."""

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    return Pool


def _in_process_pool(asked):
    """A stand-in for ProcessPoolExecutor that records each pool's worker
    count in ``asked`` and runs the parts in this process."""

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    return Pool


def _cpus(monkeypatch, count):
    """Let the process run on ``count`` CPUs, as ``_worker_count`` reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _spy(monkeypatch, *names):
    """Record (name, args) of every call to experiments.kernel.<name>."""
    calls = []
    for name in names:
        def spy(*args, name=name, real=getattr(experiments.kernel, name)):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(experiments.kernel, name, spy)
    return calls


class TestTrialMatrices:
    """The trials stream 2 hands the kernel, against _stream_trials."""

    # 2^128 + 7 has five 32-bit entropy words; block sizes at n = 1, 31 and 32
    # are 65 536, 68 and 64 trials
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7])
    @pytest.mark.parametrize("a", [2, 3, 5, 17, 255, 2**32, 2**32 + 1])
    @pytest.mark.parametrize("n", [1, 4, 5, 7, 12, 13, 16, 31, 32])
    def test_matches_trial_rng(self, monkeypatch, seed, a, n):
        # ranges ending inside the first block, one trial past it, and inside
        # block 2^32, whose index takes two entropy words, each also cut
        # inside its first block; a last block that ends early is the prefix
        # of the whole block
        size = experiments.block_size(n)
        far = (2**32 - 1) * size
        for lo, hi in [(0, 7), (0, size + 1), (far, far + 2 * size - 2),
                       (3, 7), (size // 2, size + 1), (far + size - 1, far + 2 * size - 2)]:
            config = ExperimentConfig(n=n, k=1, a=a, trials=hi, seed=seed)
            got = np.concatenate(_drawn(monkeypatch, config, lo, hi))
            assert got.dtype == np.int64
            assert np.array_equal(got, _stream_trials(seed, lo, hi, n, a))

    @pytest.mark.parametrize("lo,hi", [(0, 40), (2**32 - 2, 2**32 + 2)])
    def test_run_trials_across_two_entropy_words(self, lo, hi):
        # a block holds one trial at n = 256, so blocks past 2^32 take two
        # entropy words, as seed 2^32 does; counts come from a pure-Python oracle
        n, a = 256, 2**15
        assert experiments.block_size(n) == 1
        config = ExperimentConfig(n=n, k=1, a=a, trials=hi, seed=2**32)
        misses = [a - len(set(m.ravel().tolist()))
                  for m in _stream_trials(config.seed, lo, hi, n, a)]
        expected = (sum(m == 0 for m in misses), sum(misses), sum(m * m for m in misses))
        assert experiments._run_trials(config, lo, hi) == expected

    def test_lemire_rejections_are_redrawn(self, monkeypatch):
        # 2^32 mod 3*2^30 = 2^30: numpy rejects and redraws a quarter of its
        # 32-bit draws, and a run that ends early must still be the prefix of
        # its whole block (sample allows this a at k = 1); a power of 2 never
        # rejects
        for a in (3 * 2**30, 2**31):
            whole = _stream_trials(11, 0, experiments.block_size(3), 3, a)
            for trials in (1, 19, 20):
                config = ExperimentConfig(n=3, k=1, a=a, trials=trials, seed=11)
                got = np.concatenate(_drawn(monkeypatch, config, 0, trials))
                assert np.array_equal(got, whole[:trials])

    def test_sequential_steps_do_not_grow_with_n(self, monkeypatch):
        # one generator a block, seeded [seed, b], at every side
        made = []
        real = np.random.default_rng

        def counting(seed):
            made.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        for n in (4, 12, 16, 31):
            made.clear()
            config = ExperimentConfig(n=n, k=1, a=2, trials=3 * experiments.block_size(n) - 1,
                                      seed=9)
            _drawn(monkeypatch, config, 0, config.trials)
            assert made == [[9, 0], [9, 1], [9, 2]]

    def test_large_n_draws_per_trial(self, monkeypatch):
        # from n = 182 on a block holds one trial, so trial t is drawn by its
        # own generator, default_rng([seed, t])
        assert experiments.block_size(181) == 2 and experiments.block_size(182) == 1
        config = ExperimentConfig(n=182, k=1, a=2, trials=3, seed=5)
        drawn = _drawn(monkeypatch, config, 0, 3)
        assert [len(block) for block in drawn] == [1, 1, 1]
        for t, block in enumerate(drawn):
            expected = np.random.default_rng([5, t]).integers(0, 2, size=(1, 182, 182))
            assert np.array_equal(block, expected)

    @pytest.mark.parametrize("n", [4, 17, 31])
    def test_short_blocks_draw_per_trial(self, monkeypatch, n):
        # a run whose last block ends early draws only the trials it needs,
        # the prefix of the whole block; (17,3,3)'s side included
        size = experiments.block_size(n)
        whole = _stream_trials(0, 0, 2 * size, n, 3)
        for trials in (1, size - 1, size, size + 1, 2 * size - 1):
            config = ExperimentConfig(n=n, k=1, a=3, trials=trials, seed=0)
            drawn = _drawn(monkeypatch, config, 0, trials)
            assert [len(block) for block in drawn] == [min(size, trials - b * size)
                                                      for b in range(len(drawn))]
            assert np.array_equal(np.concatenate(drawn), whole[:trials])

    @pytest.mark.parametrize("n", [5, 7, 13])
    def test_draws_a_writable_contiguous_int64_stack(self, monkeypatch, n):
        size = experiments.block_size(n)
        config = ExperimentConfig(n=n, k=1, a=5, trials=2 * size - 1, seed=3)
        for lo in (0, 2):  # a range may start inside a block
            drawn = _drawn(monkeypatch, config, lo, config.trials)
            for cells in drawn:
                assert cells.dtype == np.int64 and cells.shape[1:] == (n, n)
                assert cells.flags.c_contiguous and cells.flags.writeable
            assert np.array_equal(np.concatenate(drawn),
                                  _stream_trials(3, lo, 2 * size - 1, n, 5))


def _direct_missing_count(seq, k, a):
    """Length-k words over [0, a) that a greedy left-to-right match of each
    word, one at a time, does not find in seq: the direct oracle."""
    missing = 0
    for word in itertools.product(range(a), repeat=k):
        matched = 0
        for x in seq:
            matched += matched < k and x == word[matched]
        missing += matched < k
    return missing


class TestOneD:
    def test_count_collections(self):
        assert oneD_count_collections([0, 1, 0, 1], 2) == 2
        assert oneD_count_collections([0, 0, 0], 2) == 0
        assert oneD_count_collections([0, 1, 2, 2, 1, 0], 3) == 2

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(MosaicError):
            oneD_count_collections([0, 2], 2)

    def test_is_omni_matches_direct_subsequence_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            seq = list(rng.integers(0, a, size=n))
            direct = _direct_missing_count(seq, k, a) == 0
            assert oneD_is_omni(seq, k, a) == direct

    def test_missing_count_matches_direct_oracle(self, rng):
        for _ in range(300):
            a, k, n = int(rng.integers(2, 5)), int(rng.integers(1, 5)), int(rng.integers(0, 14))
            seq = list(rng.integers(0, a, size=n))
            assert oneD_missing_count(seq, k, a) == _direct_missing_count(seq, k, a), (seq, k)
        for n in range(9):
            for seq in itertools.product(range(2), repeat=n):
                for k in range(1, 5):
                    assert oneD_missing_count(seq, k, 2) == _direct_missing_count(seq, k, 2)

    def test_missing_count_rejects_out_of_alphabet(self):
        for seq in ([0, 2, 1], [-1], [0, 1, 5]):
            with pytest.raises(MosaicError, match="outside alphabet"):
                oneD_missing_count(seq, 2, 2)

    def test_missing_count_example(self):
        # 0101 lacks 11-prefixed ... it has 11? 0,1,0,1 -> 11 yes; 00 yes; 10 yes
        assert oneD_missing_count([0, 1, 0, 1], 2, 2) == 0
        assert oneD_missing_count([0, 0, 1], 2, 2) == 2  # 10 and 11 missing

    def test_exhaustive_mean_matches_formula(self):
        for n, k, a in [(6, 2, 2), (8, 3, 2), (16, 4, 2), (6, 2, 3)]:
            assert oneD_exhaustive_mean_missing(n, k, a) == bounds.oneD_EX(
                n, k, a, exact=True
            )

    @pytest.mark.parametrize("n,k,a", [(9, 3, 2), (7, 2, 3)])
    def test_exhaustive_mean_matches_direct_count(self, n, k, a):
        # independent oracle: match every word against every sequence directly
        grand = sum(
            _direct_missing_count(seq, k, a)
            for seq in itertools.product(range(a), repeat=n)
        )
        assert oneD_exhaustive_mean_missing(n, k, a) == Fraction(grand, a**n)

    def test_exhaustive_mean_matches_listing_on_a_grid(self):
        # every sequence listed and matched against every word, for k <= 4
        grid = [(n, 2) for n in range(11)] + [(n, 3) for n in range(8)]
        for n, a in grid:
            sequences = list(itertools.product(range(a), repeat=n))
            for k in range(1, 5):
                grand = sum(_direct_missing_count(seq, k, a) for seq in sequences)
                assert oneD_exhaustive_mean_missing(n, k, a) == Fraction(grand, a**n), (n, k, a)

    def test_exhaustive_mean_reference_value(self):
        # value recorded from a listing of every sequence's greedy-match state
        assert oneD_exhaustive_mean_missing(18, 3, 2) == Fraction(43, 8192)

    def test_exhaustive_mean_refuses_past_the_guard(self):
        with pytest.raises(MosaicError, match="sequence space exceeds guard"):
            oneD_exhaustive_mean_missing(26, 1, 2)
        assert oneD_exhaustive_mean_missing(25, 1, 2) == Fraction(1, 2**24)

    def test_exhaustive_mean_refuses_before_building_the_size(self):
        # 2^(10^18) would not fit in memory: the guard must not build it
        with pytest.raises(MosaicError, match="sequence space exceeds guard"):
            oneD_exhaustive_mean_missing(10**18, 1, 2)

    def test_threshold_consistency(self):
        # at n well above a*H_a*k almost every sequence is omni
        rng = np.random.default_rng(5)
        n, k, a = 60, 10, 2  # threshold ratio 3 -> n=30; 60 is deep inside
        hits = sum(
            oneD_is_omni(list(rng.integers(0, a, size=n)), k, a) for _ in range(200)
        )
        assert hits >= 195
