"""The benchmark's layer tracer wraps fktor functions by name, so each name
it lists must still exist; a deletion in src would otherwise surface only as
an AttributeError in a traced benchmark run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists_in_its_layer():
    layers = load_tracer().LAYERS
    assert "ntmod" in layers and "tensor_complex_maps" in layers["ntmod"]
    missing = [f"{layer}.{name}" for layer, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"fktor.{layer}"),
                                       name, None))]
    assert missing == []
