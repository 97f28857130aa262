import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from precursor.config import PipelineConfig
from precursor.corpus import DAY, HOUR
from precursor.bursts import (Burst, burst_passes, burst_ratio, detect_all,
                              detect_bursts, filter_bursts, inter_burst_mean,
                              intra_burst_mean, segment_bursts)
from precursor.ngrams import Occurrence

from conftest import (NoSplit, best_partition, burst_of,
                      exhaustive_best_partition, min_inter_interval, ngram_of,
                      reference_detect_bursts)

T_DAYS = [0, 1, 2, 10, 11, 12]
T = [t * DAY for t in T_DAYS]
THETA = [0, 0, 1, 0, 0]

# gaps of a few hours inside clusters and of days between them, with ties
# among the small ones and, from the fixed lengths, among the large ones
gap = st.one_of(st.integers(0, 6 * HOUR), st.integers(DAY, 40 * DAY),
                st.sampled_from((6 * DAY, 15 * DAY)))
gap_lists = st.lists(gap, min_size=1, max_size=39)


class TestMeans:
    def test_inter_single_gap(self):
        assert inter_burst_mean(T, THETA) == 8 * DAY

    def test_inter_zero_when_no_split(self):
        assert inter_burst_mean(T, [0] * 5) == 0.0

    def test_inter_two_gaps(self):
        assert inter_burst_mean([0, 5, 20], [1, 1]) == 10.0

    def test_intra_single_burst_pair(self):
        assert intra_burst_mean(T, THETA) == 1 * DAY

    def test_intra_zero_when_no_split(self):
        # the definition's own zero branch, not a degenerate division
        assert intra_burst_mean(T, [0] * 5) == 0.0

    def test_intra_zero_when_all_boundaries(self):
        assert intra_burst_mean(T, [1] * 5) == 0.0

    def test_min_inter_interval(self):
        assert min_inter_interval([0, 5, 20], [1, 1]) == 5.0
        assert min_inter_interval(T, THETA) == 8 * DAY

    def test_min_inter_requires_split(self):
        with pytest.raises(NoSplit):
            min_inter_interval(T, [0] * 5)

    def test_theta_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="theta must have length 5"):
            inter_burst_mean(T, THETA[:-1])


class TestBurstRatio:
    def test_fixture_value(self):
        assert burst_ratio(T, THETA) == pytest.approx(8.0)

    def test_zero_when_no_split(self):
        assert burst_ratio(T, [0] * 5) == 0.0

    def test_balanced_ratio(self):
        assert burst_ratio([0, 10, 20], [0, 1]) == pytest.approx(1.0)


class TestDetect:
    def test_two_cluster_fixture(self):
        theta = detect_bursts(T)
        assert theta.tolist() == THETA
        assert burst_ratio(T, theta) == pytest.approx(8.0)

    def test_dense_sequence_stays_single_burst(self):
        theta = detect_bursts([t * DAY for t in [0, 1, 2, 3]])
        assert theta.tolist() == [0, 0, 0]

    def test_three_cluster_fixture(self):
        # at alpha = 4 the greedy path exists (the first single split has
        # rho = 4) and reaches boundaries after the 3rd and 6th occurrences,
        # matching the exhaustive constrained optimum
        times = [t * DAY for t in [0, 10, 20, 100, 110, 120, 200, 210, 220]]
        theta = detect_bursts(times, alpha=4.0)
        assert theta.tolist() == [0, 0, 1, 0, 0, 1, 0, 0]
        best, best_theta = exhaustive_best_partition(times, 4.0, 5 * DAY)
        assert burst_ratio(times, theta) == pytest.approx(best)
        assert tuple(theta.tolist()) == best_theta

    def test_accepted_split_satisfies_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            times = np.cumsum(rng.integers(HOUR, 10 * DAY, size=n)).tolist()
            theta = detect_bursts(times)
            if theta.sum() > 0:
                assert burst_ratio(times, theta) >= 5.0
                assert min_inter_interval(times, theta) >= 5 * DAY

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.one_of(st.integers(0, 6 * HOUR),
                                   st.integers(DAY, 40 * DAY)),
                         min_size=1, max_size=30),
           alpha=st.floats(0.5, 20.0), beta_days=st.floats(0.1, 20.0))
    def test_split_invariants(self, gaps, alpha, beta_days):
        # integer times keep every sum exact, so rho is computed with the
        # same roundings here and inside detect_bursts
        times = np.cumsum([0] + gaps).tolist()
        beta = beta_days * DAY
        theta = detect_bursts(times, alpha, beta)
        g = np.diff(times)
        if theta.any():
            assert g[theta == 1].min() >= beta
            assert burst_ratio(times, theta) >= alpha
        else:
            # one burst only when no single split is admissible
            for j in range(g.size):
                single = np.zeros(g.size, dtype=int)
                single[j] = 1
                assert burst_ratio(times, single) < alpha or g[j] < beta

    def test_greedy_never_beats_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            times = np.cumsum(rng.integers(HOUR, 8 * DAY, size=n)).tolist()
            theta = detect_bursts(times)
            best, _ = exhaustive_best_partition(times, 5.0, 5 * DAY)
            assert burst_ratio(times, theta) <= best + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.lists(gap, min_size=1, max_size=11),
           alpha=st.floats(0.5, 20.0), beta_days=st.floats(0.1, 20.0))
    def test_best_partition_equals_the_exhaustive_search(self, gaps, alpha,
                                                         beta_days):
        times = np.cumsum([0] + gaps).tolist()
        beta = beta_days * DAY
        best, theta = best_partition(times, alpha, beta)
        exact, exact_theta = exhaustive_best_partition(times, alpha, beta)
        assert best == exact
        assert burst_ratio(times, theta) == best
        # with several sets of k largest gaps the two may pick different ones
        k = sum(exact_theta)
        top = sorted(gaps, reverse=True)
        if sum(theta) == k and (k in (0, len(top)) or top[k - 1] > top[k]):
            assert theta == exact_theta

    def test_time_shift_invariance(self):
        shifted = [t + 12345 for t in T]
        assert detect_bursts(shifted).tolist() == detect_bursts(T).tolist()

    def test_scale_covariance(self):
        for k in (2, 10):
            scaled = [t * k for t in T]
            assert detect_bursts(scaled, beta=k * 5 * DAY).tolist() == \
                detect_bursts(T).tolist()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            detect_bursts([0])


class TestLockstep:
    """`detect_all` runs every n-gram's greedy split in one sweep; each
    n-gram's result must equal the one-n-gram loop's exactly."""

    @settings(max_examples=300, deadline=None)
    @given(gaps=gap_lists, t0=st.integers(-2 ** 40, 2 ** 40),
           alpha=st.floats(0.5, 20.0), beta_days=st.floats(0.1, 20.0))
    def test_detect_bursts_equals_the_loop(self, gaps, t0, alpha, beta_days):
        times = np.cumsum([t0] + gaps).tolist()
        beta = beta_days * DAY
        theta = detect_bursts(times, alpha, beta)
        assert theta.dtype == np.int64
        assert theta.tolist() == \
            reference_detect_bursts(times, alpha, beta).tolist()

    def test_detect_all_equals_the_loop_per_ngram(self):
        covered = set()

        @settings(max_examples=300, deadline=None)
        @given(ngram_gaps=st.lists(gap_lists, max_size=12),
               t0=st.integers(0, 2 ** 40), alpha=st.floats(0.5, 20.0),
               beta_days=st.floats(0.1, 20.0))
        def check(ngram_gaps, t0, alpha, beta_days):
            beta = beta_days * DAY
            index = {}
            for j, gaps in enumerate(ngram_gaps):
                times = np.cumsum([t0] + gaps).tolist()
                index[ngram_of(f"w{j}", "x")] = [
                    Occurrence(t, f"b{i % 3}", f"p{j}_{i}")
                    for i, t in enumerate(times)]
            found = detect_all(index, alpha, beta)
            assert list(found) == list(index)
            splits = []
            for ngram, occs in index.items():
                theta = reference_detect_bursts([o.timestamp for o in occs],
                                                alpha, beta, covered)
                assert found[ngram] == segment_bursts(ngram, occs, theta)
                splits.append(int(theta.sum()))
            covered.update(case for case, holds in (
                ("empty index", not index),
                ("several splits in one n-gram", max(splits, default=0) > 1),
                ("split next to no split", splits and min(splits) == 0
                 and max(splits) > 0),
                ("tied times", any(0 in gaps for gaps in ngram_gaps)))
                if holds)

        check()
        assert covered == {"empty index", "several splits in one n-gram",
                           "split next to no split", "tied times",
                           "stopped by alpha", "stopped by beta",
                           "stopped on no rise", "largest open gaps tied"}

    def test_a_split_that_only_ties_the_ratio_is_refused(self):
        # after the split at the 4-day gap, splitting at the 3-day gap
        # leaves rho at exactly 2.0, which is no strict improvement
        times = np.cumsum([0] + [g * DAY for g in (2, 2, 2, 3, 1, 4)]).tolist()
        expected = [0, 0, 0, 0, 0, 1]
        assert reference_detect_bursts(times, 0.5, DAY).tolist() == expected
        assert detect_bursts(times, 0.5, DAY).tolist() == expected
        occs = [Occurrence(t, f"b{i}", f"p{i}") for i, t in enumerate(times)]
        [(ngram, bursts)] = detect_all({ngram_of("a", "b"): occs}, 0.5,
                                       DAY).items()
        assert [len(b.occurrences) for b in bursts] == [6, 1]

    def test_detect_all_rejects_what_detect_bursts_rejects(self):
        one = {ngram_of("a", "b"): [Occurrence(0, "b0", "p0")]}
        with pytest.raises(ValueError, match="two occurrence"):
            detect_all(one)
        backwards = {ngram_of("a", "b"): [Occurrence(5, "b0", "p0"),
                                          Occurrence(3, "b1", "p1")]}
        with pytest.raises(ValueError, match="ascending"):
            detect_all(backwards)
        with pytest.raises(ValueError, match="ascending"):
            detect_bursts([5, 3])
        with pytest.raises(ValueError, match="positive"):
            detect_all({}, alpha=0.0)


class TestSegment:
    def test_segments_follow_theta(self):
        occs = [Occurrence(t, f"b{i % 2}", f"p{i}") for i, t in enumerate(T)]
        bursts = segment_bursts(ngram_of("a", "b"), occs, np.array(THETA))
        assert [(b.start, b.end) for b in bursts] == [
            (0, 2 * DAY), (10 * DAY, 12 * DAY)]
        assert sum(len(b.occurrences) for b in bursts) == len(occs)


def dense_occs(start, end, blogs, n):
    times = np.linspace(start, end, n).astype(int)
    return [(int(t), blogs[i % len(blogs)], f"p{start}_{i}")
            for i, t in enumerate(times)]


class TestFilters:
    def good_burst(self, start=0, days=4, blogs=("a", "b", "c", "d")):
        end = start + days * DAY
        return burst_of(("w1", "w2"), start, end,
                        dense_occs(start, end, blogs, 16))

    def test_good_burst_kept(self):
        burst = self.good_burst()
        kept = filter_bursts({burst.ngram: [burst]}, PipelineConfig())
        assert kept == [burst]

    def test_three_blogs_discarded(self):
        burst = self.good_burst(blogs=("a", "b", "c"))
        assert filter_bursts({burst.ngram: [burst]}, PipelineConfig()) == []

    def test_short_duration_discarded(self):
        burst = self.good_burst(days=2)
        assert filter_bursts({burst.ngram: [burst]}, PipelineConfig()) == []

    def test_gap_bounds(self):
        start, end = 0, 4 * DAY
        too_dense = burst_of(("w1", "w2"), start, end,
                             dense_occs(start, end, "abcd", 200))
        assert not burst_passes(too_dense, PipelineConfig())
        too_sparse = burst_of(("w1", "w2"), start, end,
                              dense_occs(start, end, "abcd", 4))
        assert not burst_passes(too_sparse, PipelineConfig())
        # one post has no mean gap, whatever the blog and length minimums
        one_post = burst_of(("w1", "w2"), start, start, [(start, "a", "p")])
        assert not burst_passes(one_post, PipelineConfig(min_blogs=1,
                                                         min_burst_days=0))

    def test_total_duration_cap_discards_all(self):
        b1 = self.good_burst(start=0, days=20)
        b2 = self.good_burst(start=40 * DAY, days=20)
        grouped = {b1.ngram: [Burst(b1.ngram, b1.start, b1.end,
                                    tuple(b1.occurrences)),
                              Burst(b1.ngram, b2.start, b2.end,
                                    tuple(b2.occurrences))]}
        assert filter_bursts(grouped, PipelineConfig()) == []

    def test_survivors_pass_all_predicates(self):
        rng = np.random.default_rng(5)
        grouped = {}
        for i in range(20):
            start = int(rng.integers(0, 30 * DAY))
            days = float(rng.uniform(0.5, 8))
            n = int(rng.integers(2, 40))
            blogs = [f"b{j}" for j in range(rng.integers(2, 7))]
            burst = burst_of((f"w{i}", "x"), start, start + int(days * DAY),
                             dense_occs(start, start + int(days * DAY), blogs, n))
            grouped[burst.ngram] = [burst]
        config = PipelineConfig()
        for burst in filter_bursts(grouped, config):
            assert (len({o.blog_id for o in burst.occurrences})
                    >= config.min_blogs)
            assert burst.duration >= config.min_burst_days * DAY
            times = [o.timestamp for o in burst.occurrences]
            gap = (times[-1] - times[0]) / (len(times) - 1)
            assert (config.min_mean_gap_hours * HOUR <= gap
                    <= config.max_mean_gap_days * DAY)
