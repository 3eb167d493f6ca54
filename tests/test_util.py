"""Unit tests for repro.util."""

import time

import pytest

from repro.harness import measure
from repro.obs.clock import monotonic
from repro.util import NameGenerator, OrderedSet, sanitize_identifier
from repro.util.errors import (
    AutodiffError,
    CheckpointingError,
    CodegenError,
    FrontendError,
    ReproError,
    UnsupportedFeatureError,
    ValidationError,
)


class TestNameGenerator:
    def test_fresh_names_are_unique(self):
        gen = NameGenerator()
        names = {gen.fresh("tmp") for _ in range(100)}
        assert len(names) == 100

    def test_reserved_names_are_avoided(self):
        gen = NameGenerator(reserved={"tmp"})
        assert gen.fresh("tmp") != "tmp"

    def test_first_use_keeps_prefix(self):
        gen = NameGenerator()
        assert gen.fresh("grad_A") == "grad_A"
        assert gen.fresh("grad_A") == "grad_A_0"

    def test_reserve_marks_used(self):
        gen = NameGenerator()
        gen.reserve("x")
        assert gen.is_used("x")
        assert gen.fresh("x") != "x"

    def test_sanitizes_prefix(self):
        gen = NameGenerator()
        name = gen.fresh("a b-c")
        assert name.isidentifier()


class TestSanitizeIdentifier:
    def test_replaces_invalid_chars(self):
        assert sanitize_identifier("a-b c") == "a_b_c"

    def test_leading_digit(self):
        assert sanitize_identifier("2x").startswith("_")

    def test_keyword(self):
        assert sanitize_identifier("for") != "for"
        assert sanitize_identifier("for").isidentifier()

    def test_empty(self):
        assert sanitize_identifier("").isidentifier()


class TestOrderedSet:
    def test_preserves_insertion_order(self):
        s = OrderedSet([3, 1, 2, 1])
        assert s.as_list() == [3, 1, 2]

    def test_add_and_discard(self):
        s = OrderedSet()
        s.add("a")
        s.add("b")
        s.discard("a")
        s.discard("missing")  # no error
        assert s.as_list() == ["b"]

    def test_union_difference_intersection(self):
        a = OrderedSet([1, 2, 3])
        b = OrderedSet([2, 4])
        assert a.union(b).as_list() == [1, 2, 3, 4]
        assert a.difference(b).as_list() == [1, 3]
        assert a.intersection(b).as_list() == [2]

    def test_membership_and_len(self):
        s = OrderedSet("abc")
        assert "a" in s
        assert "z" not in s
        assert len(s) == 3

    def test_copy_is_independent(self):
        a = OrderedSet([1])
        b = a.copy()
        b.add(2)
        assert 2 not in a


class TestTiming:
    """Timing is the obs clock plus the harness's repeated-measurement loop."""

    def test_monotonic_clock_measures_positive_time(self):
        start = monotonic()
        time.sleep(0.001)
        assert monotonic() - start > 0

    def test_measure_repeats(self):
        calls = []
        result = measure(lambda: calls.append(1) or 42, repeats=3, warmup=2)
        assert len(result.times) == 3
        assert len(calls) == 5
        assert result.value == 42
        assert min(result.times) <= result.mean

    def test_median_odd_even(self):
        result = measure(lambda: None, repeats=3, warmup=0)
        assert result.median == sorted(result.times)[1]


class TestErrors:
    @pytest.mark.parametrize(
        "err",
        [
            FrontendError,
            UnsupportedFeatureError,
            ValidationError,
            CodegenError,
            AutodiffError,
            CheckpointingError,
        ],
    )
    def test_all_derive_from_repro_error(self, err):
        assert issubclass(err, ReproError)

    def test_unsupported_is_frontend_error(self):
        assert issubclass(UnsupportedFeatureError, FrontendError)
