"""Unit tests of the engine table (repro.backends.registry)."""

from __future__ import annotations

import importlib.util

import pytest

from repro.backends import registry
from repro.backends.registry import (
    ENGINES,
    FAMILIES,
    available_engines,
    engine_operations,
    engines_payload,
    resolve_engine_name,
)
from repro.exceptions import StrategyError, UnknownEngineError
from repro.kernels import batch_commit
from repro.kernels.queueing import commit_window


class TestBuiltins:
    def test_builtin_engines_registered_for_both_families(self):
        # numba is listed even when not importable.
        assert list(ENGINES) == ["numba", "batch", "reference"]
        for family in ("assignment", "queueing"):
            rows = engines_payload(family)
            assert [row["name"] for row in rows] == ["numba", "batch", "reference"]
            assert [row["auto_order"] for row in rows] == [1, 2, 3]

    def test_available_engines_order_is_auto_order(self):
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

    def test_operations_expose_the_expected_names(self):
        assignment = engine_operations("batch", "assignment")
        assert set(assignment) == {
            "two_choice",
            "least_loaded",
            "threshold_hybrid",
            "random_replica",
            "nearest_replica",
        }
        queueing = engine_operations("batch", "queueing")
        assert set(queueing) == {"window"}
        # The queueing batch engine runs the plain event loop.
        assert queueing["window"].keywords["commit"] is commit_window

    def test_operation_tables_are_built_once(self):
        for family in ("assignment", "queueing"):
            assert engine_operations("reference", family) is engine_operations(
                "reference", family
            )

    def test_batch_table_binds_commit_functions_when_built(self, monkeypatch):
        # A wrapper installed on batch_commit before the table is built (as the
        # benchmark tracer installs one) must be the function the table calls.
        def wrapped(*args, **kwargs):  # pragma: no cover - never called
            raise AssertionError

        monkeypatch.setattr(batch_commit, "commit_least_loaded_of_sample", wrapped)
        monkeypatch.setattr(batch_commit, "commit_window", wrapped)
        monkeypatch.setattr(registry, "_TABLES", {})
        assert engine_operations("batch", "assignment")["two_choice"].keywords[
            "commit"
        ] is wrapped
        assert engine_operations("batch", "queueing")["window"].keywords[
            "commit"
        ] is wrapped

    def test_auto_resolution_does_not_probe_imports(self, monkeypatch):
        # numba's availability is probed once, at import: resolving "auto"
        # must not search the import path again.
        def probe(name, package=None):  # pragma: no cover - must not be called
            raise AssertionError(f"find_spec({name!r}) called")

        monkeypatch.setattr(importlib.util, "find_spec", probe)
        assert resolve_engine_name("auto", "assignment") == available_engines(
            "assignment"
        )[0]
        assert engines_payload()


class TestResolution:
    def test_auto_resolves_to_fastest_available(self):
        fastest = available_engines("assignment")[0]
        assert resolve_engine_name("auto", "assignment") == fastest
        assert resolve_engine_name(None, "assignment") == fastest

    def test_explicit_name_resolves_to_itself(self):
        assert resolve_engine_name("reference", "queueing") == "reference"

    @pytest.mark.parametrize("family", ["assignment", "queueing"])
    @pytest.mark.parametrize(
        # Names of deleted engines and "name:options" specs are unknown too.
        "spec",
        ["warp", "kernel", "sharded", "sharded:2:stale", "batch:8", "warp:4"],
    )
    def test_unknown_name_lists_the_engines(self, spec, family):
        with pytest.raises(UnknownEngineError, match="unknown") as excinfo:
            resolve_engine_name(spec, family)
        message = str(excinfo.value)
        assert all(name in message for name in ("numba", "batch", "reference"))

    def test_unknown_engine_error_is_a_strategy_error(self):
        # Callers catching StrategyError keep working across every surface.
        with pytest.raises(StrategyError):
            resolve_engine_name("warp", "queueing")

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownEngineError, match="family"):
            resolve_engine_name("batch", "graphs")
        with pytest.raises(UnknownEngineError, match="family"):
            engines_payload("graphs")

    def test_non_string_spec_rejected(self):
        with pytest.raises(UnknownEngineError):
            resolve_engine_name(42, "assignment")

    @pytest.mark.skipif(
        importlib.util.find_spec("numba") is not None, reason="numba is importable"
    )
    def test_unavailable_engine_rejected_with_reason(self):
        for family in ("assignment", "queueing"):
            with pytest.raises(UnknownEngineError, match="numba: not importable"):
                resolve_engine_name("numba", family)
            with pytest.raises(UnknownEngineError, match="not available"):
                engine_operations("numba", family)


# Last in the module: the fixture's engine row stays patched in until the
# module ends, and the tests above pin the three-engine table.
@pytest.mark.usefixtures("python_commit_engine")
class TestTestOnlyEngineRows:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_listed_engine_has_a_table(self, family):
        # An engine listed for a family but without a table there would pass
        # resolution and fail on first use.
        assert "python-commit" in available_engines(family)
        for name in available_engines(family):
            assert engine_operations(name, family)
