"""The names the benchmark's tracer patches stay where it looks them up.

`perfbench/tracing.py` wraps library functions by attribute name, in the
module or class that calls them, and a traced run fails on a name that
is gone.  The tracer is loaded from its file, unchanged, so a deletion
in the library fails these tests before it fails the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

import pursuit.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_owned(tracing):
    missing = [
        (owner, attr)
        for owner, attr, _ in tracing.SPAN_TARGETS
        if attr not in vars(tracing._owner(owner))
    ]
    assert missing == []


def test_captured_names_are_in_cli(tracing):
    assert [attr for attr in tracing.CAPTURED if attr not in vars(pursuit.cli)] == []
