import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    trial_matrices,
    trial_rng,
)
from omnikit.verify import coverage, is_omnimosaic

from conftest import placement_codes


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

    @pytest.mark.parametrize("n,k,a", [(3, 2, 2), (3, 1, 3), (2, 2, 2), (1, 1, 3)])
    def test_per_target_brute_force(self, n, k, a):
        # independent oracle: verify.coverage of every matrix, one at a time
        missing = dict.fromkeys(range(a ** (k * k)), 0)
        for e in itertools.product(range(a), repeat=n * n):
            bits = coverage(MosaicMatrix(n, n, a, e), k)
            for code in missing:
                missing[code] += not bits[code]
        total = a ** (n * n)
        assert exact_enumeration(n, k, a).per_target == {
            code: Fraction(m, total) for code, m in missing.items()
        }

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
        for n, k, a, codes in [(3, 2, 3, (0, 17, 41)), (3, 3, 2, (0, 100, 511))]:
            missing = dict.fromkeys(codes, 0)
            for e in itertools.product(range(a), repeat=n * n):
                bits = coverage(MosaicMatrix(n, n, a, e), k)
                for code in codes:
                    missing[code] += not bits[code]
            for code in codes:
                assert exact_target_missing_probability(n, k, a, code) == Fraction(
                    missing[code], a ** (n * n)
                )

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
        exact_target_missing_probability(2, 1, 2, 0)  # k < n enumerates
        assert calls == [("enumerate_coverage", (2, 1, 2, [0]))]

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
        assert rep.max_over_mono_ratio == 1.0
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

    def test_guard(self):
        with pytest.raises(MosaicError):
            exact_suen_inputs(60, 8, 2)


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
        # above the floor, so two workers start; parts split by trial index
        config = ExperimentConfig(n=4, k=2, a=2, trials=30_000, seed=7)
        assert config.trials * experiments.kernel.trial_cost(4, 2, 2) >= 2 * experiments.POOL_FLOOR
        started = []

        class RecordedPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordedPool)
        assert estimate(config, workers=4) == estimate(config, workers=1)
        assert started == [2]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a pool starts all its workers at once; this fake one records how
        # many were asked for and runs the parts in this process
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        config = ExperimentConfig(n=4, k=2, a=2, trials=40_000, seed=7)
        assert config.trials * experiments.kernel.trial_cost(4, 2, 2) >= 3 * experiments.POOL_FLOOR
        assert estimate(config, workers=100) == estimate(config, workers=1)
        assert asked == [3]

    # each below the floor of predicted work for a second worker: starting
    # the pool would cost more than it saves
    @pytest.mark.parametrize("n,k,a,trials", [(12, 3, 2, 400), (4, 2, 2, 10_000), (6, 3, 6, 50)])
    def test_small_jobs_run_in_process(self, monkeypatch, n, k, a, trials):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        config = ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=3)
        assert estimate(config, workers=2) == estimate(config, workers=1)

    def test_worker_count_reads_no_clock(self, monkeypatch):
        def no_clock(*args):
            raise AssertionError("read a clock")

        for name in ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
                     "monotonic_ns", "process_time", "process_time_ns", "thread_time",
                     "thread_time_ns"):
            monkeypatch.setattr(time, name, no_clock)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sizes = {(12, 3, 2, 400): 1, (4, 2, 2, 10_000): 1, (6, 3, 6, 50): 1,
                 (8, 3, 2, 20_000): 2, (4, 2, 2, 100_000): 2, (12, 3, 2, 4_000): 2}
        for (n, k, a, trials), want in sizes.items():
            config = ExperimentConfig(n=n, k=k, a=a, trials=trials)
            assert experiments._worker_count(config, 2) == want, (n, k, a, trials)
            assert experiments._worker_count(config, 8) == want
            assert experiments._worker_count(config, 1) == 1

    # recorded with the per-trial np.unique implementation; batching and
    # bitset dedup must reproduce every count
    @pytest.mark.parametrize(
        "n,k,a,trials,expected",
        [
            (12, 3, 2, 400, (400, 0.9875, 0.005555121510822233, 0.0175,
                             0.008255589736945623)),
            (4, 2, 2, 2000, (2000, 0.0185, 0.003013117156700018, 4.1955,
                             0.05145837013478434)),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates(self, n, k, a, trials, expected, workers):
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=2024),
                         workers=workers)
        assert (stats.trials, stats.p_omni, stats.p_omni_stderr, stats.ex_missing,
                stats.ex_missing_stderr) == expected

    # recorded with placement_codes + distinct_counts; these sizes now take
    # the subsequence automaton (kernel.covered_counts)
    @pytest.mark.parametrize(
        "n,k,a,trials,expected",
        [
            (10, 3, 2, 300, (300, 0.3433333333333333, 0.027413838084414933,
                             2.5433333333333334, 0.22910899750721014)),
            (16, 2, 3, 300, (300, 1.0, 0.0, 0.0, 0.0)),
            (10, 2, 3, 300, (300, 0.9866666666666667, 0.0066220730781117,
                             0.013333333333333334, 0.006633137535414968)),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates_on_the_automaton(self, monkeypatch, n, k, a, trials, expected,
                                               workers):
        calls = _spy(monkeypatch, "covered_counts")
        experiments._run_trials(ExperimentConfig(n=n, k=k, a=a, trials=1), 0, 1)
        assert calls
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=2024),
                         workers=workers)
        assert (stats.trials, stats.p_omni, stats.p_omni_stderr, stats.ex_missing,
                stats.ex_missing_stderr) == expected

    # recorded with placement_codes + distinct_counts: a trial's C(6,3)^2
    # codes are fewer than its 6^9 targets, so they are deduplicated by sorting
    @pytest.mark.parametrize("seed,expected", [
        (0, (50, 0.0, 0.0, 10077304.52, 1.4596616885079772)),
        (2024, (50, 0.0, 0.0, 10077306.04, 1.622545241657221)),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_estimates_without_a_bitset(self, seed, expected, workers):
        assert math.comb(6, 3) ** 2 < 6**9
        stats = estimate(ExperimentConfig(n=6, k=3, a=6, trials=50, seed=seed), workers=workers)
        assert (stats.trials, stats.p_omni, stats.p_omni_stderr, stats.ex_missing,
                stats.ex_missing_stderr) == expected

    # C(n,k) * n * B / 8 automaton word-steps, B the bytes of a row subset's
    # levels, against CODE_COST per code picks the automaton or the direct
    # path; B = 3 at (k, a) = (2, 2), 73 at (3, 2), 3028 at (3, 3), 8738 at
    # (4, 2), 1312 at (2, 9), 33 288 at (3, 4), 520 at (2, 8).  The direct path
    # sorts a trial's C(n,k)^2 codes when they are fewer than its a^(k*k)
    # targets, and takes the bitset when not.
    PATHS = {
        (12, 3, 2): "covered_counts", (10, 3, 2): "covered_counts",
        (14, 3, 2): "covered_counts", (16, 2, 3): "covered_counts",
        (20, 3, 2): "covered_counts", (4, 2, 2): "covered_counts",
        (5, 2, 2): "covered_counts", (8, 2, 3): "covered_counts",
        (9, 2, 4): "covered_counts", (6, 2, 5): "covered_counts",
        (8, 3, 2): "covered_counts",
        # 0.73, 0.019, 0.062, 0.66, 0.0015, 0.0008 and 0.024 codes per target
        (10, 3, 3): "_sorted_counts", (7, 4, 2): "_sorted_counts",
        (7, 3, 3): "_sorted_counts", (12, 2, 9): "_sorted_counts",
        (6, 3, 4): "_sorted_counts", (4, 3, 3): "_sorted_counts",
        (5, 2, 8): "_sorted_counts",
        # 5.5, 2.5 and 1.3 codes per target
        (20, 2, 9): "covered", (12, 3, 3): "covered", (14, 2, 9): "covered",
    }
    # sorted while levels were priced in whole 64-bit words a level
    BYTE_PRICED = {(2, 2, 4): "covered_counts", (4, 3, 2): "covered_counts"}

    @pytest.mark.parametrize("n,k,a,automaton", [
        (*size, path == "covered_counts") for size, path in (PATHS | BYTE_PRICED).items()
    ])
    def test_path_rule_and_both_paths_agree(self, monkeypatch, n, k, a, automaton):
        # kernel.distinct_counts takes one path; the automaton, the bitset and
        # sorting must give the same counts
        kernel = experiments.kernel
        arrs = trial_matrices(31, 0, 6, n, a)
        calls = _spy(monkeypatch, "covered_counts", "covered", "_sorted_counts")
        got = kernel.distinct_counts(arrs, k, a).tolist()
        assert {name for name, _ in calls} == {(self.PATHS | self.BYTE_PRICED)[n, k, a]}
        assert kernel.covered_counts(arrs, k, a).tolist() == got
        assert np.count_nonzero(kernel.covered(arrs, k, a), axis=1).tolist() == got
        assert kernel._sorted_counts(arrs, k, a).tolist() == got
        if automaton:  # an automaton priced above the direct path is not taken
            calls.clear()
            monkeypatch.setattr(kernel, "path_costs", lambda *args: (1, 0))
            assert kernel.distinct_counts(arrs, k, a).tolist() == got
            sparse = math.comb(n, k) ** 2 < a ** (k * k)
            assert {name for name, _ in calls} == {"_sorted_counts" if sparse else "covered"}

    @pytest.mark.parametrize("n,k,a", [(10, 3, 2), (16, 2, 3), (5, 2, 8), (14, 2, 9)])
    @pytest.mark.parametrize("chunk", ["8", "3 trials"])
    def test_automaton_steps_are_bounded(self, monkeypatch, n, k, a, chunk):
        # a step holds max(8 * CHUNK, one trial's) bytes: automaton levels on
        # the automaton, codes at 8 bytes each on either direct path
        kernel = experiments.kernel
        arrs = trial_matrices(5, 0, 10, n, a)
        want = kernel.distinct_counts(arrs, k, a).tolist()
        path = self.PATHS[n, k, a]
        if path == "covered_counts":
            per_trial = math.comb(n, k) * sum(
                dtype.itemsize * units * width
                for _, dtype, units, width in kernel.automaton_levels(k, a))
        else:
            per_trial = 8 * math.comb(n, k) ** 2
        monkeypatch.setattr(kernel, "CHUNK", 8 if chunk == "8" else 3 * per_trial // 8 + 1)
        calls = _spy(monkeypatch, "covered_counts", "covered", "_sorted_counts")
        assert kernel.distinct_counts(arrs, k, a).tolist() == want
        assert {name for name, _ in calls} == {path}
        held = [len(part) * per_trial for _, (part, _, _) in calls]
        assert max(held) <= max(8 * kernel.CHUNK, per_trial)
        assert len(held) == (10 if chunk == "8" else 4)

    @pytest.mark.parametrize("n,k,a", [(3, 5, 2), (2, 3, 128)])
    def test_k_exceeds_n_misses_everything(self, n, k, a):
        # (2,3,128): 2^63 targets, so sums of squared counts exceed 64 bits
        stats = estimate(ExperimentConfig(n=n, k=k, a=a, trials=3))
        total = a ** (k * k)
        assert (stats.p_omni, stats.ex_missing, stats.ex_missing_stderr) == (0, total, 0)

    def test_trial_rng_independent_of_partition(self):
        a = trial_rng(3, 17).integers(0, 1000, size=4)
        b = trial_rng(3, 17).integers(0, 1000, size=4)
        assert (a == b).all()
        c = trial_rng(3, 18).integers(0, 1000, size=4)
        assert not (a == c).all()

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

    def test_golden_seed(self):
        arr = trial_rng(0, 0).integers(0, 2, size=(4, 4))
        again = trial_rng(0, 0).integers(0, 2, size=(4, 4))
        assert (arr == again).all()

    def test_rejects_zero_trials(self):
        with pytest.raises(MosaicError):
            ExperimentConfig(n=4, k=2, a=2, trials=0)

    @given(n=st.integers(1, 5), k=st.integers(1, 3), a=st.integers(2, 5),
           trials=st.integers(1, 40), seed=st.integers(0, 2**130))
    @settings(max_examples=15, deadline=None)
    def test_estimate_matches_per_trial_draws(self, n, k, a, trials, seed):
        # the reference draws each trial from its own trial_rng, one at a time
        config = ExperimentConfig(n=n, k=k, a=a, trials=trials, seed=seed)
        got = [estimate(config, workers=w) for w in (1, 2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "trial_matrices", _stacked_trial_rng)
            assert got == [estimate(config, workers=1)] * 2


def _stacked_trial_rng(seed, lo, hi, n, a):
    """The stream's definition: one generator per trial."""
    draws = [trial_rng(seed, t).integers(0, a, size=(n, n)) for t in range(lo, hi)]
    return np.array(draws, dtype=np.int64).reshape(hi - lo, n, n)


def _spy(monkeypatch, *names):
    """Record (name, args) of every call to experiments.kernel.<name>."""
    calls = []
    for name in names:
        def spy(*args, name=name, real=getattr(experiments.kernel, name)):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(experiments.kernel, name, spy)
    return calls


# the largest side drawn in PCG64 lanes; one past it draws one generator per trial
_LANE_SIDE = math.isqrt(experiments._VECTOR_CELLS)
# the fewest trials a block draws in lanes; a shorter block draws one generator each
_LANE_TRIALS = experiments._LANE_TRIALS


class TestTrialMatrices:
    # 2^128 + 7 has five entropy words, more than the pool of four; n = 5, 7
    # and 13 take 13, 25 and 85 PCG64 steps, not a multiple of a lane's
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7])
    @pytest.mark.parametrize("a", [2, 3, 5, 17, 255, 2**32, 2**32 + 1])
    @pytest.mark.parametrize("n", [1, 4, 5, 7, 12, 13, 16, _LANE_SIDE, _LANE_SIDE + 1])
    def test_matches_trial_rng(self, seed, a, n):
        for lo, hi in [(0, 7), (0, _LANE_TRIALS + 1), (2**32 - _LANE_TRIALS, 2**32)]:
            got = trial_matrices(seed, lo, hi, n, a)
            assert got.dtype == np.int64
            assert np.array_equal(got, _stacked_trial_rng(seed, lo, hi, n, a))

    @pytest.mark.parametrize("lo,hi", [(0, 40), (2**32 - 2, 2**32 + 2)])
    def test_run_trials_across_two_entropy_words(self, lo, hi):
        # t >= 2^32 falls back to trial_rng; counts come from a pure-Python oracle
        config = ExperimentConfig(n=4, k=2, a=3, trials=1, seed=2**32)
        misses = [
            3**4 - len(set(placement_codes(m, 2, 3)))
            for m in _stacked_trial_rng(config.seed, lo, hi, 4, 3)
        ]
        expected = (sum(m == 0 for m in misses), sum(misses), sum(m * m for m in misses))
        assert experiments._run_trials(config, lo, hi) == expected

    def test_lemire_rejections_are_redrawn(self, monkeypatch):
        # 2^32 mod 3*2^30 = 2^30: a quarter of the draws are rejected (sample
        # allows this a at k = 1)
        a = 3 * 2**30
        expected = _stacked_trial_rng(11, 0, 20, 3, a)
        redrawn = []

        def counting_rng(seed, trial):
            redrawn.append(trial)
            return trial_rng(seed, trial)

        monkeypatch.setattr(experiments, "trial_rng", counting_rng)
        assert np.array_equal(trial_matrices(11, 0, 20, 3, a), expected)
        assert 0 < len(redrawn) < 20
        redrawn.clear()
        trial_matrices(11, 0, 20, 3, 2**31)  # a power of 2 never rejects
        assert redrawn == []

    def test_sequential_steps_do_not_grow_with_n(self, monkeypatch):
        # lanes jump ahead in two 128-bit multiplies, then each takes at most
        # _LANE_STEPS steps, so one block's numpy operations do not grow with n
        calls = 0
        mul_add = experiments._mul_add

        def counting(*args):
            nonlocal calls
            calls += 1
            return mul_add(*args)

        monkeypatch.setattr(experiments, "_mul_add", counting)
        counts = {}
        for n in (4, 12, 16, _LANE_SIDE):
            calls = 0
            trial_matrices(0, 0, _LANE_TRIALS, n, 2)
            counts[n] = calls
        assert counts[4] == 1 + 8  # one lane: the seeding step and n^2 / 2 draws
        assert counts[12] == counts[16] == counts[_LANE_SIDE] == 2 + experiments._LANE_STEPS

    def test_large_n_draws_per_trial(self, monkeypatch):
        # an emulated block's cost per trial grows with n^2, so past the
        # crossover each trial is drawn by its own generator
        drawn = []

        def counting_rng(seed, trial):
            drawn.append(trial)
            return trial_rng(seed, trial)

        monkeypatch.setattr(experiments, "trial_rng", counting_rng)
        side = math.isqrt(experiments._VECTOR_CELLS)
        trial_matrices(5, 0, _LANE_TRIALS, side, 2)
        assert drawn == []
        expected = _stacked_trial_rng(5, 0, _LANE_TRIALS, side + 1, 2)
        drawn.clear()
        assert np.array_equal(trial_matrices(5, 0, _LANE_TRIALS, side + 1, 2), expected)
        assert drawn == list(range(_LANE_TRIALS))

    @pytest.mark.parametrize("n", [4, 17, 31])
    def test_short_blocks_draw_per_trial(self, monkeypatch, n):
        # a block's lanes cost as much as about _LANE_TRIALS generators, so a
        # shorter block draws one generator per trial; both sides give trial_rng's
        # stream, the witness regeneration of an O(17,3,3) included
        drawn = []

        def counting_rng(seed, trial):
            drawn.append(trial)
            return trial_rng(seed, trial)

        monkeypatch.setattr(experiments, "trial_rng", counting_rng)
        for count in (1, _LANE_TRIALS - 1, _LANE_TRIALS):
            expected = _stacked_trial_rng(0, 271, 271 + count, n, 3)
            drawn.clear()
            assert np.array_equal(trial_matrices(0, 271, 271 + count, n, 3), expected)
            assert drawn == ([] if count == _LANE_TRIALS else list(range(271, 271 + count)))

    @pytest.mark.parametrize("n", [5, 7, 13])
    def test_draws_a_writable_contiguous_int64_stack(self, n):
        # at odd n a trial's cells are a strided slice of its 32-bit halves
        cells = trial_matrices(3, 0, 2 * _LANE_TRIALS, n, 5)
        assert cells.dtype == np.int64 and cells.shape == (2 * _LANE_TRIALS, n, n)
        assert cells.flags.c_contiguous and cells.flags.writeable
        assert np.array_equal(cells, _stacked_trial_rng(3, 0, 2 * _LANE_TRIALS, n, 5))


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
            direct = oneD_missing_count(seq, k, a) == 0
            assert oneD_is_omni(seq, k, a) == direct

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
            oneD_missing_count(seq, k, a)
            for seq in itertools.product(range(a), repeat=n)
        )
        assert oneD_exhaustive_mean_missing(n, k, a) == Fraction(grand, a**n)

    def test_exhaustive_mean_matches_listing_on_a_grid(self):
        # every sequence listed and matched against every word, for k <= 4
        grid = [(n, 2) for n in range(11)] + [(n, 3) for n in range(8)]
        for n, a in grid:
            sequences = list(itertools.product(range(a), repeat=n))
            for k in range(1, 5):
                grand = sum(oneD_missing_count(seq, k, a) for seq in sequences)
                assert oneD_exhaustive_mean_missing(n, k, a) == Fraction(grand, a**n), (n, k, a)

    def test_exhaustive_mean_reference_value(self):
        # value recorded from a listing of every sequence's greedy-match state
        assert oneD_exhaustive_mean_missing(18, 3, 2) == Fraction(43, 8192)

    def test_exhaustive_mean_refuses_past_the_guard(self):
        with pytest.raises(MosaicError, match="sequence space exceeds guard"):
            oneD_exhaustive_mean_missing(26, 1, 2)
        assert oneD_exhaustive_mean_missing(25, 1, 2) == Fraction(1, 2**24)

    def test_threshold_consistency(self):
        # at n well above a*H_a*k almost every sequence is omni
        rng = np.random.default_rng(5)
        n, k, a = 60, 10, 2  # threshold ratio 3 -> n=30; 60 is deep inside
        hits = sum(
            oneD_is_omni(list(rng.integers(0, a, size=n)), k, a) for _ in range(200)
        )
        assert hits >= 195
