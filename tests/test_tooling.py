"""The layers the benchmark's tracer wraps still exist in the package.

``bench/spans.py`` names each traced layer by module and attribute path; a
renamed or deleted function would break a traced run (``bench/run.py
--trace 1``), so this checks every name against the package.
"""

import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_src(monkeypatch):
    layers = _spans(monkeypatch).LAYERS
    assert layers
    for layer in layers:
        module = importlib.import_module(layer.module)
        assert SRC in pathlib.Path(module.__file__).resolve().parents, \
            layer.module
        *owner_path, attr = layer.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        # the tracer reads a method from the class's own dict
        found = owner.__dict__.get(attr) if owner_path else getattr(
            owner, attr, None)
        assert callable(found), f"{layer.metric}: {layer.module}.{layer.path}"
