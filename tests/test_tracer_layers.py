"""The benchmark's layer tracer wraps fktor functions by name, so each name
it lists must still exist; a deletion in src would otherwise surface only as
an AttributeError in a traced benchmark run.  Its Smith probe reads the
dense input matrix, so the inputs hom_closure builds must stay readable."""

import importlib
import importlib.util
import os

import fktor.ntcat as ntcat

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


def test_the_tracer_probes_the_smith_inputs_of_a_fresh_z2_build():
    """The traced table-build workload reads every Smith input that
    hom_closure builds; the probe must accept each of them."""
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        table = ntcat.hom_closure(ntcat.builtin_presentation("Z2"))
    finally:
        t.uninstall()
    tracer.assert_unwrapped()
    summary = t.summary()
    assert summary["per_function"]["zexact.smith"]["calls"] >= 1
    assert summary["counts"]["zexact.smith.max_dim"] > 0
    assert table.rank == ntcat.builtin_category("Z2").table.rank
