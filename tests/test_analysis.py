import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from precursor import svg
from precursor.analysis import (_rank_with_ties, binned_summary, classify,
                                corner_lists, hexbin, hex_size_for,
                                significance_table, stars, wilcoxon_rank_sum)

from conftest import (hexbin_nearest_center, reference_rank_with_ties,
                      wilcoxon_enumeration)


class TestClassify:
    def test_identical_scores_all_low(self):
        partition = classify({f"b{i}": (0.2, 0.3) for i in range(5)})
        assert set(partition.assignment.values()) == {"pl"}

    def test_high_precursor_low_laggard(self):
        partition = classify({"a": (0.9, 0.1), "b": (0.1, 0.1),
                              "c": (0.1, 0.9), "d": (0.1, 0.1)})
        assert partition.assignment["a"] == "Pl"

    def test_four_blog_fixture_one_per_class(self):
        partition = classify({"w": (0.1, 0.1), "x": (0.9, 0.1),
                              "y": (0.1, 0.9), "z": (0.9, 0.9)})
        assert partition.assignment == {"w": "pl", "x": "Pl",
                                        "y": "pL", "z": "PL"}

    def test_boundary_value_classed_low(self):
        partition = classify({"a": (0.2, 0.2), "b": (0.4, 0.4),
                              "c": (0.3, 0.3)})
        # blog c sits exactly on both means
        assert partition.assignment["c"] == "pl"


class TestWilcoxon:
    def test_identical_samples(self):
        _, p = wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
        assert p == pytest.approx(1.0)

    def test_degenerate_constant_samples(self):
        _, p = wilcoxon_rank_sum([5, 5, 5], [5, 5])
        assert p == 1.0

    def test_three_vs_three_exact(self):
        _, p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            pool = rng.permutation(60)[:n1 + n2].astype(float)
            x, y = pool[:n1].tolist(), pool[n1:].tolist()
            _, p = wilcoxon_rank_sum(x, y)
            assert p == pytest.approx(wilcoxon_enumeration(x, y), abs=1e-12)

    def test_fifteen_vs_fifteen_reference(self):
        rng = np.random.default_rng(14)
        pool = rng.permutation(1000)[:30].astype(float)
        x, y = pool[:15].tolist(), pool[15:].tolist()
        _, p = wilcoxon_rank_sum(x, y)
        ref = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="exact").pvalue
        assert p == pytest.approx(ref, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=12).tolist()
        y = rng.normal(size=25).tolist()
        assert wilcoxon_rank_sum(x, y)[1] == pytest.approx(
            wilcoxon_rank_sum(y, x)[1])

    def test_large_samples_near_scipy_asymptotic(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0.0, 1.0, size=60).tolist()
        y = rng.normal(0.4, 1.0, size=70).tolist()
        _, p = wilcoxon_rank_sum(x, y)
        ref = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="asymptotic").pvalue
        assert p == pytest.approx(ref, rel=1e-9)

    def test_tied_data_uses_corrected_normal(self):
        x = [1, 1, 2, 2, 3, 3, 8, 8, 9, 9, 10, 10]
        y = [4, 4, 5, 5, 6, 6, 7, 7, 11, 11, 12, 12]
        _, p = wilcoxon_rank_sum(x, y)
        ref = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="asymptotic").pvalue
        assert 0.0 < p <= 1.0
        assert p == pytest.approx(ref, rel=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf,
                                 math.nan]) | st.floats(), max_size=40))
def test_rank_with_ties_equals_the_loop(values):
    """Few distinct values, so most draws tie; a NaN ties with nothing."""
    values = np.array(values, dtype=np.float64)
    ranks, sizes = _rank_with_ties(values)
    expected_ranks, expected_sizes = reference_rank_with_ties(values)
    assert ranks.tobytes() == expected_ranks.tobytes()
    assert sizes.tolist() == expected_sizes.tolist()


class TestStars:
    def test_thresholds(self):
        assert stars(0.2) == ""
        assert stars(0.04) == "*"
        assert stars(0.009) == "**"
        assert stars(0.0009) == "***"


class TestBinnedSummary:
    def test_single_bin_summarizes_everything(self):
        scores = {f"b{i}": float(i) for i in range(5)}
        metric = {f"b{i}": float(10 * i) for i in range(5)}
        [summary] = binned_summary(scores, metric, n_bins=1)
        assert summary.count == 5
        assert summary.minimum == 0.0 and summary.maximum == 40.0
        assert summary.median == 20.0

    def test_empty_bin_emitted_with_nulls(self):
        scores = {"a": 0.0, "b": 0.0, "c": 1.0}
        metric = {"a": 1.0, "b": 2.0, "c": 3.0}
        summaries = binned_summary(scores, metric, n_bins=2)
        assert summaries[0].count == 2
        assert summaries[1].count == 1
        wide = binned_summary({"a": 0.0, "b": 1.0}, {"a": 1.0, "b": 2.0},
                              n_bins=4)
        empty = [s for s in wide if s.count == 0]
        assert empty and all(s.median is None for s in empty)
        # no score at all: four empty bins over [0, 1], log bins or not
        for log_bins in (False, True):
            assert [(s.lo, s.hi, s.count, s.median) for s in binned_summary(
                {}, {}, n_bins=4, log_bins=log_bins)] == [
                    (0.0, 0.25, 0, None), (0.25, 0.5, 0, None),
                    (0.5, 0.75, 0, None), (0.75, 1.0, 0, None)]

    def test_two_bin_hand_quartiles(self):
        scores = {f"b{i}": (0.0 if i < 4 else 1.0) for i in range(8)}
        metric = {f"b{i}": float(v) for i, v in
                  enumerate([1, 2, 3, 4, 10, 20, 30, 40])}
        lo, hi = binned_summary(scores, metric, n_bins=2)
        # linear-interpolation quartiles of [1,2,3,4] and [10,20,30,40]
        assert (lo.q1, lo.median, lo.q3) == (1.75, 2.5, 3.25)
        assert (hi.q1, hi.median, hi.q3) == (17.5, 25.0, 32.5)
        assert lo.mean == 2.5 and hi.mean == 25.0

    def test_bin_count_validated(self):
        with pytest.raises(ValueError):
            binned_summary({}, {}, n_bins=0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e300, 1e300),
                              st.integers(0, 50).map(float)),
                    min_size=1, max_size=40))
    def test_quartiles_equal_numpy_percentile(self, values):
        # integer-valued metrics (in-degrees) tie often; np.percentile, with
        # numpy's default linear rule, is the oracle
        scores = {f"b{i}": 0.0 for i in range(len(values))}
        metric = {f"b{i}": v for i, v in enumerate(values)}
        [summary] = binned_summary(scores, metric, n_bins=1)
        expected = np.percentile(np.array(values), [25, 50, 75])
        assert (summary.q1, summary.median, summary.q3) == \
            tuple(expected.tolist())


class TestHexbin:
    def test_single_point(self):
        cells = hexbin([(0.3, 0.4, 7.0)], grid_size=5)
        assert len(cells) == 1
        assert cells[0].count == 1 and cells[0].mean_metric == 7.0

    def test_coincident_points_average(self):
        cells = hexbin([(0.5, 0.5, 2.0), (0.5, 0.5, 4.0)], grid_size=5)
        assert len(cells) == 1
        assert cells[0].mean_metric == pytest.approx(3.0)

    def test_counts_match_nearest_center_oracle(self):
        rng = np.random.default_rng(19)
        points = [(float(x), float(y), 1.0)
                  for x, y in rng.uniform(0, 1, size=(120, 2))]
        grid = 6
        cells = hexbin(points, grid_size=grid)
        oracle = hexbin_nearest_center(points, hex_size_for(points, grid))
        got = {(c.q, c.r): c.count for c in cells}
        assert got == oracle

    def test_total_count_preserved(self):
        rng = np.random.default_rng(20)
        points = [(float(x), float(y), float(m))
                  for x, y, m in rng.uniform(0, 1, size=(60, 3))]
        cells = hexbin(points, grid_size=4)
        assert sum(c.count for c in cells) == len(points)
        assert hexbin([], grid_size=4) == []

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            hexbin([(0, 0, 1)], grid_size=0)


class TestSignificanceTable:
    def test_identical_distributions_no_stars(self):
        partition = classify({"a": (0.1, 0.1), "b": (0.9, 0.1),
                              "c": (0.1, 0.9), "d": (0.9, 0.9)})
        metric = {b: 5.0 for b in "abcd"}
        table = significance_table(partition, metric)
        assert all(row["stars"] == "" for row in table)

    def test_separated_classes_are_significant(self):
        scores = {}
        metric = {}
        rng = np.random.default_rng(22)
        for i in range(30):
            scores[f"lo{i}"] = (0.1, 0.1)
            metric[f"lo{i}"] = float(rng.uniform(0, 1))
            scores[f"hi{i}"] = (0.9, 0.1)
            metric[f"hi{i}"] = float(rng.uniform(100, 101))
        table = significance_table(classify(scores), metric)
        row = next(r for r in table
                   if {r["class_a"], r["class_b"]} == {"pl", "Pl"})
        assert row["stars"] == "***"

    def test_table_schema_is_stable(self):
        # the published class means are not reproducible without the original
        # corpus; this pins the table format only
        partition = classify({"a": (0.1, 0.1), "b": (0.9, 0.1),
                              "c": (0.1, 0.9), "d": (0.9, 0.9)})
        table = significance_table(partition, {b: 1.0 for b in "abcd"})
        pairs = {(r["class_a"], r["class_b"]) for r in table}
        assert pairs == set(itertools.combinations(("pl", "Pl", "pL", "PL"), 2))
        assert all(set(r) == {"class_a", "class_b", "n_a", "n_b", "mean_a",
                              "mean_b", "statistic", "p_value", "stars"}
                   for r in table)

    def test_empty_class_row_blank(self):
        partition = classify({"a": (0.1, 0.1), "b": (0.9, 0.9)})
        table = significance_table(partition, {"a": 1.0, "b": 2.0})
        row = next(r for r in table
                   if {r["class_a"], r["class_b"]} == {"pl", "Pl"})
        assert row["p_value"] is None and row["stars"] == ""


class TestCornerLists:
    def test_extremes_land_in_their_corners(self):
        precursor = {"low_small": 0.001, "low_big": 0.002,
                     "high_small": 0.9, "high_big": 1.0}
        degrees = {"low_small": 1, "low_big": 400,
                   "high_small": 1, "high_big": 500}
        corners = corner_lists(precursor, degrees, k=1)
        assert corners["ll"][0][0] == "low_small"
        assert corners["lh"][0][0] == "low_big"
        assert corners["hl"][0][0] == "high_small"
        assert corners["hh"][0][0] == "high_big"

    def test_k_limits_list_length(self):
        precursor = {f"b{i}": float(i + 1) for i in range(30)}
        degrees = {f"b{i}": i + 1 for i in range(30)}
        corners = corner_lists(precursor, degrees, k=10)
        assert all(len(v) == 10 for v in corners.values())
        assert list(corner_lists({}, {}, k=10).items()) == [
            ("ll", []), ("lh", []), ("hl", []), ("hh", [])]

    def test_zero_values_survive_log_transform(self):
        corners = corner_lists({"a": 0.0, "b": 0.5}, {"a": 0, "b": 3}, k=2)
        assert corners["ll"][0][0] == "a"
        assert all(math.isfinite(d) for lst in corners.values()
                   for _, d in lst)
        # equal positive values normalize to 0 rather than to 0 / 0
        equal = corner_lists({"a": 0.5, "b": 0.5}, {"a": 3, "b": 3}, k=2)
        assert [d for _, d in equal["ll"]] == [0.0, 0.0]


class TestSvg:
    def test_no_cells_draw_the_bare_frame(self):
        assert (svg.hexbin_svg([], 1.0, "P", "L", "title")
                == svg._svg("P", "L", "title", []))

    def test_no_scores_draw_no_box(self):
        bins = binned_summary({}, {}, n_bins=4)
        drawn = svg.boxplot_svg(bins, "bins", "metric", "title")
        # the frame and one label per bin of [0, 1]; no whisker, box or
        # median line
        assert drawn == svg._svg("bins", "metric", "title", [
            f'<text x="{x}" y="440" text-anchor="middle" font-size="10">'
            f'{label}</text>' for x, label in (
                ("122.00", "[0, 0.25]"), ("254.00", "[0.25, 0.5]"),
                ("386.00", "[0.5, 0.75]"), ("518.00", "[0.75, 1]"))])
