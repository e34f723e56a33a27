"""The benchmark's traced run wraps package functions by name; they must exist."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_every_trace_target_resolves():
    missing = [f"{module}.{attr}" for module, attr in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"dwelltime.{module}"), attr, None))]
    assert missing == []


def test_potential_evaluate_resolves():
    from dwelltime.potentials import PotentialSpec
    assert callable(PotentialSpec.evaluate)
