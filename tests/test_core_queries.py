"""Unit tests for query descriptors and miscellaneous core pieces."""

import numpy as np
import pytest

from repro.core import TopKQuery, TemporalObject, PiecewiseLinearFunction
from repro.core.errors import InvalidQueryError


class TestTopKQuery:
    def test_valid(self):
        q = TopKQuery(1.0, 5.0, 3)
        assert q.length == 4.0

    def test_instant_degenerate_allowed(self):
        q = TopKQuery(2.0, 2.0, 1)
        assert q.length == 0.0

    def test_rejects_reversed(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery(5.0, 1.0, 3)

    def test_rejects_bad_k(self):
        # Non-integral k used to pass here and be truncated (batched)
        # or escape as a numpy TypeError (scalar) further down.
        for bad in (0, 2.5, float("nan"), float("inf"), None, "3"):
            with pytest.raises(InvalidQueryError):
                TopKQuery(0.0, 1.0, bad)

    @pytest.mark.parametrize("k", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_k_is_stored_as_int(self, k):
        # ``k=3.0`` must slice and partition downstream exactly like 3.
        q = TopKQuery(0.0, 1.0, k)
        assert q.k == 3 and type(q.k) is int

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_times(self, bad):
        # ``t2 < t1`` is False for NaN, so the interval check alone
        # would let these through to a NaN-scored answer.
        with pytest.raises(InvalidQueryError):
            TopKQuery(bad, 1.0, 3)
        with pytest.raises(InvalidQueryError):
            TopKQuery(0.0, bad, 3)

    def test_frozen(self):
        q = TopKQuery(0.0, 1.0, 1)
        with pytest.raises(AttributeError):
            q.k = 5


class TestTemporalObject:
    def test_properties(self):
        obj = TemporalObject(7, PiecewiseLinearFunction([0, 2, 4], [1, 3, 1]))
        assert obj.num_segments == 2
        assert obj.total_mass == pytest.approx(8)
        assert obj.score(0, 2) == pytest.approx(4)

    def test_label_not_in_equality(self):
        fn = PiecewiseLinearFunction([0, 1], [1, 1])
        assert TemporalObject(1, fn, "a") == TemporalObject(1, fn, "b")

    def test_with_appended_immutable(self):
        obj = TemporalObject(1, PiecewiseLinearFunction([0, 1], [2, 2]))
        extended = obj.with_appended(2.0, 4.0)
        assert obj.num_segments == 1
        assert extended.num_segments == 2
        assert extended.object_id == 1


class TestRestrictedPlf:
    def test_interior_restriction(self):
        plf = PiecewiseLinearFunction([0, 10], [0, 10])
        cut = plf.restricted(2, 6)
        assert cut.start == 2 and cut.end == 6
        assert cut.value(4) == pytest.approx(4)
        assert cut.total_mass == pytest.approx(plf.integral(2, 6))

    def test_disjoint_returns_none(self):
        plf = PiecewiseLinearFunction([0, 10], [1, 1])
        assert plf.restricted(20, 30) is None

    def test_restriction_covering_span_is_identity_shape(self):
        plf = PiecewiseLinearFunction([2, 5, 8], [1, 3, 1])
        cut = plf.restricted(0, 10)
        assert cut.start == 2 and cut.end == 8
        assert cut.total_mass == pytest.approx(plf.total_mass)

    def test_partition_sums_to_whole(self):
        rng = np.random.default_rng(3)
        times = np.unique(rng.uniform(0, 50, 20))
        values = rng.uniform(0, 5, times.size)
        plf = PiecewiseLinearFunction(times, values)
        cuts = np.linspace(times[0], times[-1], 6)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            piece = plf.restricted(float(a), float(b))
            if piece is not None:
                total += piece.total_mass
        assert total == pytest.approx(plf.total_mass, rel=1e-9)
