"""The benchmark's span tracer (perfbench/spans.py) patches tmfkit by name.
A target that moves (say, a method inherited instead of defined on its
class) would leave a traced run silently counting nothing, so pin them."""

import importlib
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans")


def test_traced_functions_are_module_level_functions(monkeypatch):
    spans = load_spans(monkeypatch)
    for _, mod, attr in spans.FUNCTIONS:
        module = importlib.import_module(f"tmfkit.{mod}")
        fn = vars(module).get(attr)
        assert inspect.isfunction(fn), f"tmfkit.{mod}.{attr}"
        assert fn.__module__ == module.__name__, f"tmfkit.{mod}.{attr}"


def test_traced_methods_are_bound_on_their_class(monkeypatch):
    spans = load_spans(monkeypatch)
    for _, mod, cls_name, meth in spans.METHODS:
        cls = getattr(importlib.import_module(f"tmfkit.{mod}"), cls_name)
        assert meth in vars(cls), f"tmfkit.{mod}.{cls_name}.{meth}"
