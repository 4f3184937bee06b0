"""The benchmark's tracer wraps names that live in this package.

``perfbench/tracing.py`` replaces each of its ``SITES`` attributes for
the length of a traced pass.  A renamed or deleted function, or a name
no longer bound where the tracer looks it up, would leave a span empty
or break the traced run, so every site is checked here.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_site_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.SITES]
    for (_, _, name, _), fn in zip(tracing.SITES, originals):
        assert f"{fn.__module__}.{fn.__qualname__}" == f"lidargrid.{name}"

    with tracing.Tracer().installed():
        for (module, attr, _, _), fn in zip(tracing.SITES, originals):
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr}"

    for (module, attr, _, _), fn in zip(tracing.SITES, originals):
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"
