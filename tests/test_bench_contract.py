"""The traced benchmark (bench/spans.py) wraps program functions by the
module attribute their callers look up. A name missing from the package
would crash the traced run when it installs its wrappers."""

import importlib
import importlib.util
import sys
from pathlib import Path

from critind import analysis, fixture

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = load_spans()
    for mod, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"


def test_tracer_installs_and_restores():
    spans = load_spans()
    for mod, _, _ in spans.WRAPPED:
        importlib.import_module(mod)
    before = [getattr(sys.modules[mod], attr) for mod, attr, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    tracer.install(sys.modules)
    try:
        analysis.analyze(fixture("GF"))  # looked up on the module, as the bench does
    finally:
        tracer.uninstall()
    assert [getattr(sys.modules[mod], attr) for mod, attr, _ in spans.WRAPPED] == before
    assert {"analysis.analyze", "critical.structure"} <= {span[0] for span in tracer.spans}
