"""Tests for the stats/table helpers."""

import random

import pytest

from repro.sim.stats import (
    format_table,
    geometric_mean,
    histogram,
    mean,
    percentile,
    std,
)


class TestMean:
    def test_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty(self):
        assert mean([]) == 0.0

    def test_generator_input(self):
        assert mean(x for x in (2.0, 4.0)) == 3.0


class TestStd:
    def test_constant_is_zero(self):
        assert std([5, 5, 5]) == 0.0

    def test_known_value(self):
        assert std([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_short_input(self):
        assert std([1]) == 0.0


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_ignores_non_positive(self):
        assert geometric_mean([0, -1, 4]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_endpoints(self):
        data = [7, 1, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 7

    def test_matches_numpy_linear_method(self):
        # numpy.percentile([10, 20, 30, 40], 25) == 17.5
        assert percentile([10, 20, 30, 40], 25) == 17.5

    def test_empty_and_singleton(self):
        assert percentile([], 50) == 0.0
        assert percentile([42], 99) == 42

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestHistogram:
    def test_counts_cover_all_values(self):
        counts, edges = histogram([1, 2, 3, 4, 5], bins=4)
        assert sum(counts) == 5
        assert len(edges) == 5
        assert edges[0] == 1 and edges[-1] == 5

    def test_interior_edge_lands_in_higher_bin(self):
        counts, _ = histogram([0, 5, 10], bins=2)
        assert counts == [1, 2]  # 5 belongs to [5, 10], not [0, 5)

    def test_max_value_stays_in_last_bin(self):
        counts, _ = histogram([0, 10], bins=10)
        assert counts[-1] == 1

    def test_empty_input(self):
        counts, edges = histogram([], bins=3)
        assert counts == [0, 0, 0]
        assert edges == pytest.approx([0, 1 / 3, 2 / 3, 1])

    def test_constant_input(self):
        counts, edges = histogram([4, 4, 4], bins=2)
        assert sum(counts) == 3
        assert edges[0] == 4

    def test_invalid_bins_raises(self):
        with pytest.raises(ValueError):
            histogram([1], bins=0)


class TestNumpyFallbackEquivalence:
    """The pure-Python helpers must agree exactly with numpy, which is
    only a test-side reference (the runtime never imports it)."""

    def test_percentile_paths_agree(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        for _ in range(2000):
            n = rng.randrange(1, 40)
            if rng.random() < 0.5:
                data = [rng.uniform(-50, 50) for _ in range(n)]
            else:
                data = [rng.randrange(-20, 20) for _ in range(n)]
            p = rng.choice([0, 25, 50, 99, 100, rng.uniform(0, 100)])
            assert percentile(data, p) == float(np.percentile(data, p))

    def test_histogram_paths_agree(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(9)
        for _ in range(500):
            bins = rng.randrange(1, 12)
            low = rng.uniform(-10, 10)
            width = rng.uniform(0.001, 10) / bins
            # Half the values sit exactly on bin edges, where rounding
            # decides the bin.
            data = [low + rng.randrange(bins + 1) * width
                    if rng.random() < 0.5 else
                    rng.uniform(low, low + bins * width)
                    for _ in range(rng.randrange(2, 60))]
            if min(data) == max(data):
                continue
            counts_np, edges_np = np.histogram(data, bins=bins)
            counts_py, edges_py = histogram(data, bins)
            assert counts_py == counts_np.tolist()
            assert edges_py == edges_np.tolist()

    def test_empty_and_constant_inputs_agree(self):
        """Empty input spans numpy's default [0, 1]; constant input
        spans [c, c + 1] (numpy's own default would be c +- 0.5)."""
        np = pytest.importorskip("numpy")
        for data, span in (([], (0.0, 1.0)), ([4.0, 4.0, 4.0], (4.0, 5.0))):
            counts_np, edges_np = np.histogram(data, bins=3, range=span)
            assert histogram(data, bins=3) == (counts_np.tolist(),
                                               edges_np.tolist())


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 10_000.0]],
                           title="T")
        assert out.startswith("T\n")
        assert "a" in out and "bb" in out
        assert "2.500" in out
        assert "10,000" in out

    def test_column_alignment(self):
        out = format_table(["col"], [["value"], ["x"]])
        lines = out.splitlines()
        assert len({len(line) for line in lines if "|" not in line}) <= 2

    def test_float_formats(self):
        out = format_table(["v"], [[0.0], [12.34], [3.14159]])
        assert "0" in out
        assert "12.3" in out
        assert "3.142" in out

    def test_negative_zero_renders_as_zero(self):
        # -0.0004 formats as "-0.000" at three decimals; it must
        # surface as plain "0", and so must exact -0.0.
        out = format_table(["v"], [[-0.0004], [-0.0]])
        assert "-0" not in out
        for line in out.splitlines()[2:]:
            assert line.strip() == "0"
