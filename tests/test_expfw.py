"""Tests for the experiment framework (repro.expfw).

Covers the typed parameter spaces and spec registration/inheritance,
including byte-identity with the legacy hand-rolled figure text.

Simulations run at tiny scales — wiring is under test here, not the
quantitative results.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.expfw import Param, ParamSpace, require_spec

SCALE = 0.0625


# ---------------------------------------------------------------------------
# Params


class TestParams:
    def test_integer_bounds_enforced(self):
        param = Param.integer("processors", 16, minimum=1, maximum=64)
        assert param.validate(4) == 4
        with pytest.raises(ConfigurationError):
            param.validate(0)
        with pytest.raises(ConfigurationError):
            param.validate(128)
        with pytest.raises(ConfigurationError):
            param.validate(1.5)

    def test_bool_is_not_an_int(self):
        param = Param.integer("fifo", 10)
        with pytest.raises(ConfigurationError):
            param.validate(True)

    def test_choice_validates_membership(self):
        param = Param.choice("family", "block", ("block", "sli"))
        assert param.validate("sli") == "sli"
        with pytest.raises(ConfigurationError):
            param.validate("bands")

    def test_names_validates_each_entry(self):
        param = Param.names("scenes", ("a", "b"), ("a", "b", "c"))
        assert param.validate(["c", "a"]) == ("c", "a")
        with pytest.raises(ConfigurationError):
            param.validate(["a", "nope"])

    def test_bad_default_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            Param.integer("n", 0, minimum=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Param("x", "complex", 1)

    def test_space_rejects_duplicates_and_unknown_overrides(self):
        space = ParamSpace((Param.integer("n", 1), Param.number("scale", 0.25)))
        with pytest.raises(ConfigurationError):
            ParamSpace((Param.integer("n", 1), Param.integer("n", 2)))
        with pytest.raises(ConfigurationError):
            space.resolve({"bogus": 3})

    def test_resolve_layers_overrides_onto_defaults(self):
        space = ParamSpace((Param.integer("n", 1), Param.number("scale", 0.25)))
        assert space.resolve() == {"n": 1, "scale": 0.25}
        assert space.resolve({"n": 5}) == {"n": 5, "scale": 0.25}

    def test_grid_order_matches_nested_loops(self):
        space = ParamSpace((Param.integer("a", 0), Param.integer("b", 0)))
        points = space.grid({"a": (1, 2), "b": (10, 20)})
        assert [(p["a"], p["b"]) for p in points] == [
            (1, 10), (1, 20), (2, 10), (2, 20),
        ]

    def test_derive_overrides_defaults_and_adds_params(self):
        space = ParamSpace((Param.integer("n", 1, minimum=1),))
        child = space.derive(defaults={"n": 4}, extra=(Param.flag("fast", True),))
        assert child.resolve() == {"n": 4, "fast": True}
        with pytest.raises(ConfigurationError):
            space.derive(defaults={"bogus": 1})
        # The derived default still honours the parent's bounds.
        with pytest.raises(ConfigurationError):
            space.derive(defaults={"n": 0})


# ---------------------------------------------------------------------------
# Specs


class TestSpecs:
    def test_render_is_byte_identical_to_hand_rolled_text(self):
        from repro.analysis.experiments.fig5 import fig5_imbalance, fig5_speedup
        from repro.analysis.experiments.fig7 import fig7

        cases = {
            "fig5-imbalance": fig5_imbalance("block", SCALE)
            + "\n\n"
            + fig5_imbalance("sli", SCALE),
            "fig5-speedup": fig5_speedup("block", SCALE)
            + "\n\n"
            + fig5_speedup("sli", SCALE),
            "fig7-ratio2": fig7(
                "block", SCALE, bus_ratio=2.0, scenes=("massive32_1255", "teapot_full")
            )
            + "\n\n"
            + fig7(
                "sli", SCALE, bus_ratio=2.0, scenes=("massive32_1255", "teapot_full")
            ),
        }
        for name, legacy in cases.items():
            assert require_spec(name).render(SCALE) == legacy

    def test_derived_spec_inherits_and_overrides(self):
        parent = require_spec("fig7")
        child = require_spec("fig7-ratio2")
        assert child.resolve()["bus_ratio"] == 2.0
        assert child.resolve()["scenes"] == ("massive32_1255", "teapot_full")
        assert parent.resolve()["bus_ratio"] == 1.0
        # Same runner and panels, different defaults.
        assert child.runner is parent.runner
        assert child.panels == parent.panels

    def test_run_validates_overrides(self):
        spec = require_spec("fig5-speedup")
        with pytest.raises(ConfigurationError):
            spec.run({"scene": "not-a-scene"})
        with pytest.raises(ConfigurationError):
            spec.run({"bogus": 1})

    def test_unknown_spec_raises(self):
        with pytest.raises(ConfigurationError):
            require_spec("not-an-experiment")
