"""Tests for the runtime shape-contract checker behind ``pytest --shape-check``.

The wrapper must be invisible when contracts hold (same results, exceptions
propagate untouched) and must record a violation — never raise — when a
runtime shape or dtype contradicts the declared contract.
"""

import numpy as np
import pytest

from repro.analysis import shape_runtime
from repro.analysis.shapes_spec import ShapeSpec, discover


@pytest.fixture()
def runtime():
    """Enable/disable around each test so wrapping never leaks.

    Under a global ``--shape-check`` run the checker is already enabled;
    suspend it so each test controls its own specs, and restore afterwards.
    """
    was_enabled = shape_runtime.is_enabled()
    if was_enabled:
        shape_runtime.disable()
    yield shape_runtime
    shape_runtime.disable()
    shape_runtime.take_violations()
    if was_enabled:
        shape_runtime.enable()


class TestCleanContracts:
    def test_enable_wraps_every_spec(self, runtime):
        assert runtime.enable() == len(discover())

    def test_enable_is_idempotent(self, runtime):
        runtime.enable()
        assert runtime.enable() == 0

    def test_real_contracts_hold_on_layer_calls(self, runtime):
        runtime.enable()
        from repro.nn.layers import Conv2D, Dense, Flatten, ReLU

        x = np.random.default_rng(0).normal(size=(3, 8, 8, 3))
        out = Conv2D(3, 4, kernel_size=3, rng=np.random.default_rng(0)).forward(x)
        out = ReLU().forward(out)
        out = Flatten().forward(out)
        out = Dense(out.shape[1], 5, rng=np.random.default_rng(1)).forward(out)
        assert out.shape == (3, 5)
        assert runtime.take_violations() == []

    def test_disable_restores_originals(self, runtime):
        from repro.nn.layers import Flatten
        original = Flatten.__dict__["forward"]
        runtime.enable()
        assert Flatten.__dict__["forward"] is not original
        runtime.disable()
        assert Flatten.__dict__["forward"] is original


class TestByNameBindings:
    """``from module import fn`` callers must reach the wrapper too."""

    def test_conv_forward_checks_im2col(self, runtime):
        import repro.nn.im2col
        import repro.nn.layers
        original = repro.nn.im2col.im2col
        runtime.enable()
        assert repro.nn.layers.im2col is repro.nn.im2col.im2col
        assert repro.nn.layers.im2col is not original
        im2col = ("nn/im2col.py", "im2col")
        before = runtime.call_counts().get(im2col, 0)
        x = np.random.default_rng(0).normal(size=(3, 8, 8, 3))
        repro.nn.layers.Conv2D(
            3, 4, kernel_size=3, rng=np.random.default_rng(0)).forward(x)
        assert runtime.call_counts()[im2col] == before + 1
        assert runtime.take_violations() == []
        runtime.disable()
        assert repro.nn.layers.im2col is original
        assert repro.nn.im2col.im2col is original

    def test_disable_restores_modules_imported_while_enabled(self, runtime):
        import importlib
        import sys

        import repro.nn.im2col
        original = repro.nn.im2col.im2col
        saved = sys.modules.pop("repro.nn.layers")
        try:
            runtime.enable()
            late = importlib.import_module("repro.nn.layers")
            assert late is not saved
            assert late.im2col is not original  # captured the wrapper
            runtime.disable()
            assert late.im2col is original
        finally:
            sys.modules["repro.nn.layers"] = saved
            repro.nn.layers = saved


class TestViolations:
    def test_wrong_contract_records_violation(self, runtime):
        bad = (ShapeSpec("nn/layers.py", "Flatten.forward",
                         "(N, D) -> (N,)"),)
        runtime.enable(bad)
        from repro.nn.layers import Flatten
        out = Flatten().forward(np.ones((3, 2, 2, 1)))
        assert out.shape == (3, 4)  # the call itself is untouched
        violations = runtime.take_violations()
        assert violations
        assert any("rank" in str(v) for v in violations)
        assert all(v.qualname == "Flatten.forward" for v in violations)

    def test_take_violations_drains(self, runtime):
        bad = (ShapeSpec("nn/layers.py", "Flatten.forward",
                         "(N, D) -> (N,)"),)
        runtime.enable(bad)
        from repro.nn.layers import Flatten
        Flatten().forward(np.ones((3, 2, 2, 1)))
        assert runtime.take_violations()
        assert runtime.take_violations() == []

    def test_dtype_violation_recorded(self, runtime):
        bad = (ShapeSpec("nn/layers.py", "Flatten.forward",
                         "(N, ...) -> (N, D)", dtype="float32"),)
        runtime.enable(bad)
        from repro.nn.layers import Flatten
        Flatten().forward(np.ones((2, 2, 2, 1), dtype=np.float64))
        violations = runtime.take_violations()
        assert any("float64" in str(v) for v in violations)

    def test_symbol_unification_across_args_and_output(self, runtime):
        # (N, D) -> (N, K): N must match between input and output.  Dense
        # preserves the batch dim, so the real layer never violates; a spec
        # demanding the *same* symbol for rows and columns must.
        bad = (ShapeSpec("nn/layers.py", "Dense.forward",
                         "(N, N) -> (N, K)"),)
        runtime.enable(bad)
        from repro.nn.layers import Dense
        Dense(4, 2, rng=np.random.default_rng(0)).forward(np.ones((3, 4)))
        violations = runtime.take_violations()
        assert any("N" in str(v) for v in violations)


class TestExceptionTransparency:
    def test_exceptions_propagate_without_violation(self, runtime):
        runtime.enable()
        from repro.nn.layers import Dense
        with pytest.raises(ValueError):
            Dense(4, 2, rng=np.random.default_rng(0)).forward(np.ones((3, 7)))
        assert runtime.take_violations() == []
