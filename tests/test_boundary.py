"""The checked boundary: every documented argument of a count, degree,
parity, shift, object, name or word kind refuses a malformed value with its
module's error class, never with a bare TypeError, ValueError or KeyError
and never with a result.

Each row names a callable, a valid call of it, and the parameters to
spoil with their kinds; the parameter is found by `inspect.signature`, so
a row fails when the parameter it names is renamed or gone.  The valid
call must succeed, so a refusal comes from the spoiled argument alone.
"""

import functools
import inspect
import json
import os
import random

import pytest

from conftest import random_block_graph
from fktor.finspace import SpaceError, builtin_space, z_space
from fktor.graphk import BlockGraph, fk_module, tor_ck
from fktor.ntcat import (CategoryError, HomTable, builtin_category, builtin_presentation,
                         end_splits, generator_images, hom_closure)
from fktor.ntmod import (FreeResolution, GradedModule, ModuleError, TorReport,
                         extend_resolution, free_action, free_map, free_module,
                         free_ranks, left_complex_underlying, projective_dimension,
                         rational_tor, resolution_for, resolve_simple, tensor_complex_maps,
                         tor, tor_single, validate_resolution)
from fktor.zexact import (Echelon, GradedHom, IntMatrix, Presentation, ZExactError,
                          exact_node, map_echelon)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "fktor", "data")

# the malformed values of each kind; "1" names an object of every builtin
# space, so an object gets an unknown name instead
BAD = {
    "count": (True, False, 1.0, 2.5, "1", None, -1),
    "bound": (True, False, 1.0, 2.5, "1", -1),  # a count where None means the default
    "parity": (True, 1.0, 2.5, "1", None, -1, 2),
    "integer": (True, 1.0, 2.5, "1", None),  # a shift or a factor: any int is one
    "object": (True, 1.0, 2.5, None, "9"),
    "name": (True, 1.0, 2.5, "1", None),
    "word": (("bogus",),),  # a word of arrows; a row adds words that do not compose
}


def _z3():
    sc = builtin_category("Z3")
    return sc, sc.table


def _left():
    sc, _ = _z3()
    return free_module(sc, "14", "left")


def _res():
    sc, _ = _z3()
    return resolve_simple(sc, "14", 2)


def _arrow():
    sc, _ = _z3()
    return sc.presentation.arrows["i:4>14"]


def _dims():
    sc, t = _z3()
    return {(W, p): free_ranks(t, "right", [("14", 0)], W, p)
            for W in sc.objects for p in (0, 1)}


@functools.cache
def _ck_z3():
    """fk_module of the graph ck_z3 over Z3, whose arrow d:1>4 acts in degree 1;
    shared, since a refused word is never cached."""
    with open(os.path.join(DATA, "ck_z3.json")) as fh:
        return fk_module(BlockGraph.from_json(json.load(fh)))


def _echelons():
    """(f_ech, g_ech, n) for the zero maps Z -> Z^2 -> Z: g_ech.n is 3."""
    return map_echelon(IntMatrix.zero(2, 1), []), map_echelon(IntMatrix.zero(1, 2), []), 2


def _identity_hom():
    return GradedHom.identity(_left().entry("14"))


# (error, callable, valid arguments, {parameter: kind or (kind, *more bad values)})
ROWS = [
    (ZExactError, IntMatrix, lambda: ([[1, 2]], 1, 2), {"rows": "bound", "cols": "bound"}),
    (ZExactError, IntMatrix.zero, lambda: (2, 3), {"rows": "count", "cols": "count"}),
    (ZExactError, IntMatrix.identity, lambda: (2,), {"n": "count"}),
    (ZExactError, IntMatrix.scale, lambda: (IntMatrix([[1, 2]]), -3), {"c": "integer"}),
    (ZExactError, Presentation, lambda: (2,), {"generators": "count"}),
    (ZExactError, GradedHom, lambda: (0, *_identity_hom()[1:]), {"degree": "parity"}),
    (ZExactError, Echelon, lambda: (2,), {"n": "count"}),
    (ZExactError, exact_node, _echelons, {"n": ("count", 4)}),
    (SpaceError, z_space, lambda: (3,), {"m": ("count", 0, 9)}),
    (SpaceError, builtin_space, lambda: ("Z3",), {"name": ("name", "Z5")}),
    (SpaceError, builtin_category, lambda: ("Z3",), {"space_name": ("name", "Z5")}),
    (CategoryError, builtin_presentation, lambda: ("Z1",), {"space_name": ("name", "Z5")}),
    (CategoryError, hom_closure, lambda: (builtin_presentation("Z1"), 8),
     {"max_len": ("bound", 0)}),
    (CategoryError, HomTable.identity, lambda: (_z3()[1], "14"), {"obj": "object"}),
    (CategoryError, HomTable.zero, lambda: (_z3()[1], "14", "4", 0),
     {"src": "object", "dst": "object", "parity": "parity"}),
    (CategoryError, HomTable.basis_elements, lambda: (_z3()[1], "1234", "1234", 0),
     {"src": "object", "dst": "object", "parity": "parity"}),
    (CategoryError, HomTable.word_matrix,
     lambda: (_z3()[1], "post", "4", 0, ("i:4>14",)),
     {"side": ("name", "left"), "W": "object", "parity": "parity"}),
    (CategoryError, HomTable.post_matrix,
     lambda: (_z3()[1], _z3()[1].identity("14"), "4", 0), {"W": "object", "parity": "parity"}),
    (CategoryError, HomTable.pre_matrix,
     lambda: (_z3()[1], _z3()[1].identity("14"), "4", 0), {"W": "object", "parity": "parity"}),
    (CategoryError, end_splits, lambda: (_z3()[1], "14"), {"obj": "object"}),
    (CategoryError, generator_images,
     lambda: (_z3()[0].presentation.arrows.values(), "left", lambda a, p: None),
     {"side": ("name", "post")}),
    (ModuleError, GradedModule, lambda: (_z3()[0], "left", _left().entries, _left().actions),
     {"variance": "name"}),
    (ModuleError, GradedModule.entry, lambda: (_left(), "14"), {"obj": "object"}),
    (ModuleError, GradedModule.designated,
     lambda: (_left(), "inc", frozenset("4"), frozenset("14")), {"kind": "name"}),
    (ModuleError, GradedModule.action_word, lambda: (_ck_z3(), ("d:1>4",), "1", "4"),
     {"word": ("word", (), ("d:1>4", "d:1>4")), "src_obj": "object", "dst_obj": "object"}),
    (ModuleError, GradedModule.action_combo,
     lambda: (_ck_z3(), {("d:1>4",): 1}, "1", "4", 1), {"parity": "parity"}),
    (ModuleError, GradedModule.sum_map,
     lambda: (_left(), 0, [("14", 0)], [("14", 0)], [[None]]), {"degree": "parity"}),
    (ModuleError, GradedModule.tensor_mod_k, lambda: (_left(), 2), {"k": ("count", 0, 1)}),
    (ModuleError, free_ranks, lambda: (_z3()[1], "left", [("14", 0)], "14", 0),
     {"side": "name", "W": "object", "parity": "parity"}),
    (ModuleError, free_map,
     lambda: (_z3()[1], "left", [("14", 0)], [("14", 0)], [[_z3()[1].identity("14")]], "14", 0),
     {"side": "name", "W": "object", "parity": "parity"}),
    (ModuleError, free_action,
     lambda: (_z3()[1], "right", [("14", 0)], _arrow(), 0, _dims()),
     {"side": "name", "parity": "parity"}),
    (ModuleError, free_module, lambda: (_z3()[0], "14", "left", 1),
     {"Y": "object", "side": "name", "shift": "integer"}),
    (ModuleError, FreeResolution.level, lambda: (_res(), 1), {"n": "count"}),
    (ModuleError, FreeResolution.diff, lambda: (_res(), 1), {"n": ("count", 0)}),
    (ModuleError, FreeResolution.dims, lambda: (_res(), 1, "14", 0),
     {"n": "count", "W": "object", "parity": "parity"}),
    (ModuleError, FreeResolution.underlying_diff, lambda: (_res(), 1, "14", 0),
     {"n": ("count", 0), "W": "object", "parity": "parity"}),
    (ModuleError, resolve_simple, lambda: (_z3()[0], "14", 2),
     {"Y": "object", "depth": "count"}),
    (ModuleError, resolution_for, lambda: (_z3()[0], "14", 2, "auto"),
     {"Y": "object", "depth": "count", "engine": ("name", "bogus")}),
    (ModuleError, extend_resolution, lambda: (_res(), 3), {"depth": "count"}),
    (ModuleError, validate_resolution, lambda: (_res(), 2), {"depth": "count"}),
    (ModuleError, tor, lambda: (_left(), 1, "auto"), {"n": "count", "engine": "name"}),
    (ModuleError, rational_tor, lambda: (_left(), 1, "auto"),
     {"n": "count", "engine": "name"}),
    (ModuleError, projective_dimension, lambda: (_left(), 1, "auto"),
     {"max_n": "count", "engine": "name"}),
    (ModuleError, tensor_complex_maps, lambda: (_res(), _left(), 1), {"n": "count"}),
    (ModuleError, tor_single, lambda: (_res(), _left(), 1), {"n": "count"}),
    (ModuleError, TorReport.projective_dimension, lambda: (tor(_left(), 2), 1),
     {"max_n": ("count", 2)}),
    (ModuleError, TorReport.aggregate, lambda: (tor(_left(), 2), 1), {"n": ("count", 3)}),
    (ModuleError, TorReport.is_zero, lambda: (tor(_left(), 2), 1), {"n": ("count", 3)}),
    (ModuleError, TorReport.is_free, lambda: (tor(_left(), 2), 1), {"n": ("count", 3)}),
    (ModuleError, left_complex_underlying,
     lambda: (_z3()[0], [[("14", 0)], [("14", 0)]], [[[_z3()[1].identity("14")]]], "14", 0),
     {"W": "object", "parity": "parity"}),
    (ModuleError, tor_ck, lambda: (random_block_graph("Z3", random.Random(1)), 1, "auto"),
     {"max_degree": "count", "engine": "name"}),
]

CASES = [pytest.param(error, fn, make, param, *((kind, ()) if isinstance(kind, str)
                                                 else (kind[0], kind[1:])),
                      id=f"{fn.__qualname__}-{param}")
         for error, fn, make, params in ROWS for param, kind in params.items()]


@pytest.mark.parametrize("error,fn,make,param,kind,extra", CASES)
def test_a_malformed_argument_is_refused_with_the_modules_error(error, fn, make, param,
                                                                kind, extra):
    sig = inspect.signature(fn)
    assert param in sig.parameters, f"{fn.__qualname__} has no parameter {param}"
    fn(*make())  # the valid call
    for bad in BAD[kind] + extra:
        bound = sig.bind(*make())
        bound.arguments[param] = bad
        try:
            fn(*bound.args, **bound.kwargs)
        except error:
            continue
        pytest.fail(f"{fn.__qualname__}({param}={bad!r}) gave a result")
