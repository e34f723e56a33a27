"""The benchmark's traced run wraps package functions by name; they must exist."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_every_trace_target_resolves():
    missing = [f"{module}.{attr}" for module, attr in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"dwelltime.{module}"), attr, None))]
    assert missing == []


def test_potential_evaluate_resolves():
    from dwelltime.potentials import PotentialSpec
    assert callable(PotentialSpec.evaluate)


@pytest.mark.parametrize("module,function,position,name", [
    ("numerics", "numerov", 0, "f"),
    ("radial", "integrate_radial", 3, "grid"),
    ("resonance", "find_kp_eigenvalues", 2, "seeds"),
    ("scenarios", "atomic_write_text", 1, "text"),
])
def test_span_counters_read_the_argument_they_expect(module, function, position, name):
    # spans.py counts from positional arguments: a moved parameter would be
    # misread or crash a traced run
    fn = getattr(importlib.import_module(f"dwelltime.{module}"), function)
    params = list(inspect.signature(fn).parameters.values())
    assert params[position].name == name
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_numerov_returns_values_and_scale():
    # the rescue counter reads out[1] of every numerov call
    from dwelltime.numerics import numerov
    out = numerov(np.zeros(5), 0.1, 0.0, 0.1)
    assert isinstance(out, tuple) and len(out) == 2
    assert out[1] == 1.0


def test_tangent_numerov_keeps_scale_at_index_1():
    # the rescue counter reads out[1] of tangent-carrying calls too
    from dwelltime.numerics import numerov
    out = numerov(np.zeros(5), 0.1, 0.0, 0.1, tangent=(0.0, 0.0, -2.0))
    assert isinstance(out, tuple) and len(out) == 3
    assert out[1] == 1.0
    f = np.full(2001, 2500.0)  # grows by e^100 per block: a rescaled solve
    out = numerov(f, 1.0, 1.0, 1.0, tangent=(0.0, 0.0, -2.0))
    assert out[1] < 1.0 and out[1] == numerov(f, 1.0, 1.0, 1.0)[1]
