"""The benchmark's tracer finds every function it names.

perfbench/tracing.py rebinds the functions of `hyperelliptic` it spans and
counts by module and attribute path, as strings, in the child process of a
traced run.  A rename in the library would crash those children; this test
makes it fail here instead.
"""

import importlib

from conftest import load_perfbench


def resolve(module_name: str, path: str):
    owner = importlib.import_module(f"hyperelliptic.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_tracer_names_resolve():
    tracing = load_perfbench("tracing")
    for name, (module_name, path) in {**tracing.TRACED, **tracing.COUNTED}.items():
        assert callable(resolve(module_name, path)), name
    # the compute_K size hook divides |K| by this constant
    assert resolve("albanese", "K_ENUMERATION_CAP") > 0
