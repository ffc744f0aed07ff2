"""fktor's value and report types: the frozen ones are NamedTuples and the
mutable ones slotted records.  Both compare by their fields within one
class, show as Name(field=value, ...) and build from positional or keyword
fields with their defaults; only the frozen ones hash, and the validated
ones refuse bad fields.  A cold `import fktor.cli` loads no
`dataclasses`, nor what that module would pull in."""

import io
import os
import subprocess
import sys

import pytest

from fktor.cli import EXIT_OK, run
from fktor.finspace import LCSubset, SpaceError
from fktor.graphk import FastTorResult, GraphReport, SubquotientK
from fktor.ntcat import Arrow, RingIdealData, SpaceCategory, _Bucket, builtin_category
from fktor.ntmod import ExactnessReport, TorReport, ValidationReport
from fktor.zexact import (AbGroupNF, GradedGroup, GradedHom, GroupHom, HomologyResult,
                          IntMatrix, Presentation, ZExactError)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cold_cli_import_loads_no_dataclass_machinery():
    code = f"import sys, fktor.cli; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


# ---------------------------------------------------------------------------
# Frozen value types
# ---------------------------------------------------------------------------

P2, P3 = Presentation(2), Presentation(3)
A32 = IntMatrix([[1, 0], [0, 1], [1, 1]])
HOM = GroupHom(P2, P3, A32)
ABC = frozenset("abc")


def frozen_values():
    """(class, fields by name) for one value of each frozen type; building
    twice from the same fields gives two distinct, equal objects."""
    return [
        (AbGroupNF, dict(rank=1, torsion=(2, 4))),
        (GroupHom, dict(source=P2, target=P3, matrix=A32)),
        (HomologyResult, dict(group=AbGroupNF(0, (2,)), lattice_basis=A32,
                              quotient=P3)),
        (GradedGroup, dict(even=P2, odd=P3)),
        (GradedHom, dict(degree=0, from_even=HOM, from_odd=GroupHom.zero(P3, P3))),
        (LCSubset, dict(value=frozenset("a"), witness_u=ABC, witness_v=frozenset("bc"))),
        (Arrow, dict(name="i:1>12", src="1", dst="12", parity=0, kind="i")),
    ]


@pytest.mark.parametrize("cls,fields", frozen_values(), ids=lambda v: getattr(v, "__name__", ""))
def test_frozen_types_compare_hash_and_show_by_their_fields(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, f) for f in fields] == list(fields.values())
    shown = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(a) == f"{cls.__name__}({shown})"
    assert len({a, b}) == 1
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, first, fields[first])
    with pytest.raises(AttributeError):
        a.extra = 1


def test_frozen_types_with_different_fields_differ():
    assert AbGroupNF(1, (2,)) != AbGroupNF(1, (4,))
    assert Arrow("a", "1", "2", 0, "i") != Arrow("a", "1", "2", 1, "i")
    assert GroupHom(P2, P3, A32) != GroupHom(P2, Presentation(3), A32)


def test_abgroup_str_and_predicates():
    assert str(AbGroupNF(1, (2,))) == "Z^1 + Z/2" and repr(AbGroupNF(1, (2,))) == \
        "AbGroupNF(rank=1, torsion=(2,))"
    assert str(AbGroupNF(0, ())) == "0" and AbGroupNF(0, ()).is_trivial()
    assert AbGroupNF(3, ()).is_free() and not AbGroupNF(0, (2,)).is_free()


@pytest.mark.parametrize("build", [
    lambda: AbGroupNF(0, (1,)),
    lambda: AbGroupNF(0, (2, 3)),
    lambda: AbGroupNF(rank=0, torsion=(4, 2)),
    lambda: GroupHom(P3, P2, A32),
    lambda: GroupHom(source=P2, target=P2, matrix=A32),
    lambda: GradedHom(2, HOM, HOM),
    lambda: GradedHom(degree=-1, from_even=HOM, from_odd=HOM),
], ids=["unit torsion", "broken chain", "broken chain by keyword", "mis-shaped hom",
        "mis-shaped hom by keyword", "degree 2", "degree -1 by keyword"])
def test_validated_types_still_refuse_bad_fields(build):
    with pytest.raises(ZExactError):
        build()


def test_lc_subset_still_refuses_a_wrong_witness():
    with pytest.raises(SpaceError):
        LCSubset(frozenset("a"), frozenset("a"), ABC)
    with pytest.raises(SpaceError):
        LCSubset(frozenset("ab"), ABC, frozenset("bc"))


def test_the_value_types_are_not_used_as_tuples(monkeypatch):
    """Refuse tuple iteration, indexing, membership, + and * on the frozen
    types, then run CLI verbs that build every one of them: none of the code
    they reach may treat a value as the tuple it is."""
    def refuse(*_):
        raise AssertionError("a value type was used as a tuple")

    for cls, _ in frozen_values():
        for name in ("__iter__", "__getitem__", "__contains__", "__add__", "__mul__",
                     "__rmul__"):
            monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(AssertionError):
        list(AbGroupNF(0, ()))
    for argv in (["space-info", "--builtin", "C2"],
                 ["graph-tor", "--space", "Z3", "--file", "ck_z3.json", "--degree", "3"],
                 ["graph-tor", "--space", "S", "--file", "ck_s.json"],
                 ["graph-k", "--space", "Z3", "--file", "ck_z3.json"],
                 ["module-exact", "--space", "Z4", "--file", "m_example.json"],
                 ["module-pd", "--space", "Z4", "--file", "m_example.json", "--max", "3"],
                 ["cat-table", "--space", "Z2"]):
        assert run(argv, out=io.StringIO()) == EXIT_OK, argv


# ---------------------------------------------------------------------------
# Mutable records
# ---------------------------------------------------------------------------

def records():
    """(class, fields by name, defaults by name) for each mutable record,
    its fields in order."""
    sc = builtin_category("Z1")
    return [
        (_Bucket, dict(src="1", dst="1", parity=0),
         dict(words=[], index={}, ext={}, short=0, lattice=None)),
        (SpaceCategory, dict(space=sc.space, presentation=sc.presentation, table=sc.table,
                             designator=sc.designator), dict(resolutions={})),
        (RingIdealData, dict(nilpotent=True, semidirect=True, nilpotency_index=2,
                             end_nil_ranks={"1": (0, 0)}), {}),
        (ValidationReport, dict(ok=True), dict(problems=[])),
        (ExactnessReport, dict(ok=False), dict(failures=[])),
        (TorReport, dict(space="Z1", groups={"1": {0: (AbGroupNF(1, ()), AbGroupNF(0, ()))}}),
         {}),
        (GraphReport, dict(triangular=True, no_sinks=True, no_sources=False,
                           condition_k=True, condition_k_checked=True), dict(problems=[])),
        (SubquotientK, dict(subset="1", k0=P2, k1_basis=A32), {}),
        (FastTorResult, dict(group_even=AbGroupNF(0, ()), group_odd=AbGroupNF(0, (2,))),
         dict(witnesses={}, middle_groups=(), homology=None)),
    ]


@pytest.mark.parametrize("cls,fields,defaults", records(),
                         ids=lambda v: getattr(v, "__name__", ""))
def test_records_keep_fields_construction_and_defaults(cls, fields, defaults):
    a, b = cls(*fields.values()), cls(**fields)
    for rec in (a, b):
        assert {f: getattr(rec, f) for f in fields} == fields
        assert {f: getattr(rec, f) for f in defaults} == defaults
    # each mutable default is a new object per record
    for f, v in defaults.items():
        if isinstance(v, (list, dict)):
            assert getattr(a, f) is not getattr(b, f)
    full = {**fields, **defaults}
    assert cls(*full.values()) == cls(**full) == a
    with pytest.raises(TypeError):
        hash(a)
    last = list(fields)[-1]
    setattr(a, last, None)
    assert getattr(a, last) is None and a != b


def test_record_repr_and_equality():
    assert repr(ValidationReport(True)) == "ValidationReport(ok=True, problems=[])"
    assert repr(ExactnessReport(False, ["x"])) == "ExactnessReport(ok=False, failures=['x'])"
    assert ValidationReport(True) != ExactnessReport(True)
    assert ValidationReport(True) == ValidationReport(True, [])
    assert ValidationReport(True).problems is not ValidationReport(True).problems
    sc = builtin_category("Z1")
    other = SpaceCategory(sc.space, sc.presentation, sc.table, sc.designator, {"1": None})
    # the resolutions are left out of equality and repr
    assert other == sc and "resolutions" not in repr(other)
    assert repr(other).startswith("SpaceCategory(space=FiniteSpace(Z1")

