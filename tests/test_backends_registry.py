"""Unit tests of the engine registry (repro.backends.registry)."""

from __future__ import annotations

import pytest

from repro.backends.registry import (
    EngineSpec,
    available_engines,
    register_engine,
    registered_engines,
    resolve_engine,
    resolve_engine_name,
)
from repro.exceptions import StrategyError, UnknownEngineError


class TestBuiltins:
    def test_builtin_engines_registered_for_both_families(self):
        for family in ("assignment", "queueing"):
            names = [engine.name for engine in registered_engines(family)]
            # numba is listed even when not importable.
            assert names == ["numba", "batch", "reference"]

    def test_available_engines_order_is_priority_descending(self):
        names = available_engines("assignment")
        assert names.index("batch") < names.index("reference")

    def test_numba_availability_matches_importability(self):
        try:
            import numba  # noqa: F401

            importable = True
        except ImportError:
            importable = False
        for family in ("assignment", "queueing"):
            assert ("numba" in available_engines(family)) == importable

    def test_assignment_reference_is_not_streaming(self):
        assert not resolve_engine("reference", "assignment").supports_streaming
        assert resolve_engine("batch", "assignment").supports_streaming

    def test_queueing_engines_all_stream(self):
        for engine in registered_engines("queueing"):
            assert engine.supports_streaming

    def test_commit_fns_expose_the_expected_operations(self):
        assignment = resolve_engine("batch", "assignment").commit_fns
        assert set(assignment) == {
            "two_choice",
            "least_loaded",
            "threshold_hybrid",
            "random_replica",
            "nearest_replica",
        }
        queueing = resolve_engine("batch", "queueing").commit_fns
        assert set(queueing) == {"window"}


class TestResolution:
    def test_auto_resolves_to_fastest_available(self):
        fastest = available_engines("assignment")[0]
        assert resolve_engine_name("auto", "assignment") == fastest
        assert resolve_engine_name(None, "assignment") == fastest

    def test_explicit_name_resolves_to_itself(self):
        assert resolve_engine_name("reference", "queueing") == "reference"

    def test_engine_spec_object_resolves(self):
        assert resolve_engine_name(EngineSpec("batch"), "assignment") == "batch"
        assert (
            resolve_engine_name(EngineSpec("auto", family="queueing"), "queueing")
            == available_engines("queueing")[0]
        )

    def test_engine_spec_family_mismatch_rejected(self):
        with pytest.raises(UnknownEngineError, match="family"):
            resolve_engine(EngineSpec("batch", family="queueing"), "assignment")

    @pytest.mark.parametrize("family", ["assignment", "queueing"])
    @pytest.mark.parametrize(
        # Names of deleted engines and "name:options" specs are unknown too.
        "spec",
        ["warp", "kernel", "sharded", "sharded:2:stale", "batch:8", "warp:4"],
    )
    def test_unknown_name_lists_registered_engines(self, spec, family):
        with pytest.raises(UnknownEngineError, match="unknown") as excinfo:
            resolve_engine(spec, family)
        message = str(excinfo.value)
        assert all(name in message for name in ("numba", "batch", "reference"))

    def test_unknown_engine_error_is_a_strategy_error(self):
        # Pre-registry callers catch StrategyError; the subclassing keeps them
        # working across every surface.
        with pytest.raises(StrategyError):
            resolve_engine("warp", "queueing")

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownEngineError, match="family"):
            resolve_engine("batch", "graphs")

    def test_non_string_spec_rejected(self):
        with pytest.raises(UnknownEngineError):
            resolve_engine(42, "assignment")


class TestRegistration:
    def test_registering_and_resolving_a_custom_engine(self, scratch_registry):
        calls = []

        def loader():
            calls.append("loaded")
            return {"window": lambda *a, **k: None}

        register_engine(
            "custom",
            family="queueing",
            commit_fns=loader,
            priority=-5,
            description="test backend",
        )
        engine = resolve_engine("custom", "queueing")
        assert engine.available
        assert not calls  # registration and resolution never load the fns
        assert "window" in engine.commit_fns
        assert calls == ["loaded"]
        # Low priority keeps "auto" pointed at the builtin engines.
        assert resolve_engine_name("auto", "queueing") != "custom"

    def test_unavailable_requirement_reported_and_skipped(self, scratch_registry):
        register_engine(
            "ghost",
            family="assignment",
            commit_fns={},
            requires=("definitely_not_a_module",),
            priority=99,
        )
        # Highest priority, but unavailable: "auto" skips it...
        assert resolve_engine_name("auto", "assignment") != "ghost"
        assert "ghost" not in available_engines("assignment")
        # ...and explicit selection explains why.
        with pytest.raises(UnknownEngineError, match="definitely_not_a_module"):
            resolve_engine("ghost", "assignment")

    def test_reserved_and_invalid_names_rejected(self):
        with pytest.raises(UnknownEngineError):
            register_engine("auto", family="assignment", commit_fns={})
        with pytest.raises(UnknownEngineError):
            register_engine("", family="assignment", commit_fns={})

    def test_custom_engine_usable_by_strategies(self, scratch_registry):
        # A backend registered under the assignment family is immediately
        # selectable by every strategy surface: alias the batch table.
        batch_fns = dict(resolve_engine("batch", "assignment").commit_fns)
        register_engine(
            "batch-alias", family="assignment", commit_fns=batch_fns, priority=-1
        )
        from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy

        strategy = ProximityTwoChoiceStrategy(radius=2, engine="batch-alias")
        assert strategy.engine == "batch-alias"
        assert strategy.engine_supports_streaming

