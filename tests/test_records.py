"""Result records keep the dataclass semantics, and dskit starts without dataclasses.

The seven result records are plain slotted classes. These tests pin what
callers could rely on while they were dataclasses: construction by position,
keyword and default, the repr, equality by type and fields, hashing of the
frozen records only, read-only frozen fields, and copy and pickle. A
Coloring also keeps its kappa read-only, and hashes it by its items.
"""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dskit
from dskit.balanced import Coloring
from dskit.errors import ValidationError
from dskit.homology import BettiTable, FieldSpec, ManifoldVerdict
from dskit.poly import MPoly
from dskit.relations import Classification, RelationReport
from dskit.stanley_reisner import RationalSeries

F2 = FieldSpec(2)
BETTI = BettiTable((0, 1, 0), F2)

# name: (by position, by keyword, its repr, a record that differs in one field)
CASES = {
    "FieldSpec": (
        lambda: FieldSpec(2),
        lambda: FieldSpec(characteristic=2),
        "FieldSpec(characteristic=2)",
        FieldSpec(3),
    ),
    "BettiTable": (
        lambda: BettiTable((0, 1, 0), F2),
        lambda: BettiTable(field=F2, betti=(0, 1, 0)),
        "BettiTable(betti=(0, 1, 0), field=FieldSpec(characteristic=2))",
        BettiTable((0, 1, 0), FieldSpec(0)),
    ),
    "ManifoldVerdict": (
        lambda: ManifoldVerdict(False, (3,), BETTI, F2),
        lambda: ManifoldVerdict(field=F2, witness_betti=BETTI, witness=(3,), is_manifold=False),
        "ManifoldVerdict(is_manifold=False, witness=(3,), witness_betti=BettiTable("
        "betti=(0, 1, 0), field=FieldSpec(characteristic=2)), field=FieldSpec(characteristic=2))",
        ManifoldVerdict(False, (4,), BETTI, F2),
    ),
    "RelationReport": (
        lambda: RelationReport("ds-h", False, ("h0",), (2,), {"d": 2}, "why"),
        lambda: RelationReport(
            skipped="why", context={"d": 2}, residuals=(2,), labels=("h0",), holds=False,
            relation="ds-h",
        ),
        "RelationReport(relation='ds-h', holds=False, labels=('h0',), residuals=(2,),"
        " context={'d': 2}, skipped='why')",
        RelationReport("ds-h", False, ("h0",), (2,), {"d": 3}, "why"),
    ),
    "Classification": (
        lambda: Classification(True, True, True, True, FieldSpec(0), {"eulerian": (1,)}),
        lambda: Classification(
            witnesses={"eulerian": (1,)}, field=FieldSpec(0), homology_manifold=True,
            eulerian=True, semi_eulerian=True, reciprocal=True,
        ),
        "Classification(reciprocal=True, semi_eulerian=True, eulerian=True,"
        " homology_manifold=True, field=FieldSpec(characteristic=0), witnesses={'eulerian': (1,)})",
        Classification(True, True, False, True, FieldSpec(0), {"eulerian": (1,)}),
    ),
    "Coloring": (
        lambda: Coloring({1: 1, 2: 2}, (1, 1)),
        lambda: Coloring(a=(1, 1), kappa={1: 1, 2: 2}),
        "Coloring(kappa={1: 1, 2: 2}, a=(1, 1))",
        Coloring({1: 2, 2: 1}, (1, 1)),
    ),
    "RationalSeries": (
        lambda: RationalSeries((1, 2, 1), 2),
        lambda: RationalSeries(denominator_exponent=2, numerator=(1, 2, 1)),
        "RationalSeries(numerator=(1, 2, 1), denominator_exponent=2)",
        RationalSeries((1, 2, 1), 3),
    ),
    "RationalSeries-colored": (
        lambda: RationalSeries(MPoly({(0, 0): 1, (1, 1): 1}, (1, 1)), (1, 1)),
        lambda: RationalSeries(
            denominator_exponent=(1, 1), numerator=MPoly({(0, 0): 1, (1, 1): 1}, (1, 1))
        ),
        "RationalSeries(numerator=MPoly({(0, 0): 1, (1, 1): 1}, bound=(1, 1)),"
        " denominator_exponent=(1, 1))",
        RationalSeries(MPoly({(0, 0): 1}, (1, 1)), (1, 1)),
    ),
}
FROZEN = {"FieldSpec", "BettiTable", "ManifoldVerdict", "Coloring", "RationalSeries",
          "RationalSeries-colored"}
FIELDS = {
    FieldSpec: ("characteristic",),
    BettiTable: ("betti", "field"),
    ManifoldVerdict: ("is_manifold", "witness", "witness_betti", "field"),
    RelationReport: ("relation", "holds", "labels", "residuals", "context", "skipped"),
    Classification: (
        "reciprocal", "semi_eulerian", "eulerian", "homology_manifold", "field", "witnesses"
    ),
    Coloring: ("kappa", "a"),
    RationalSeries: ("numerator", "denominator_exponent"),
}


@pytest.mark.parametrize("name", CASES)
def test_construction_repr_and_equality(name):
    by_position, by_keyword, text, other = CASES[name]
    record = by_position()
    assert repr(record) == repr(by_keyword()) == text
    assert record == by_keyword() and not record != by_keyword()
    assert record != other and not record == other
    # no tuple semantics: a record is not its fields, and it does not iterate
    assert record != tuple(getattr(record, name) for name in FIELDS[type(record)])
    with pytest.raises(TypeError):
        iter(record)


def test_equality_needs_the_same_type():
    betti = BettiTable((0,), F2)
    assert betti != ManifoldVerdict(True, None, None, F2)
    # same fields, other type
    assert (BettiTable({0: 0}, (1,)) == Coloring({0: 0}, (1,))) is False


def test_defaults():
    assert FieldSpec() == FieldSpec(0) and repr(FieldSpec()) == "FieldSpec(characteristic=0)"
    report = RelationReport("ds-h", True, ("h0", "h1"), (0, 0))
    assert repr(report) == (
        "RelationReport(relation='ds-h', holds=True, labels=('h0', 'h1'), residuals=(0, 0),"
        " context={}, skipped=None)"
    )
    flags = Classification(True, False, True, False, F2)
    assert repr(flags) == (
        "Classification(reciprocal=True, semi_eulerian=False, eulerian=True,"
        " homology_manifold=False, field=FieldSpec(characteristic=2), witnesses={})"
    )
    # each record gets a dict of its own, as with default_factory=dict
    report.context["d"] = 1
    flags.witnesses["eulerian"] = (1,)
    assert RelationReport("ds-h", True, (), ()).context == {}
    assert Classification(True, True, True, True, F2).witnesses == {}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_and_refuse_writes(name):
    by_position, by_keyword, _, other = CASES[name]
    record = by_position()
    assert hash(record) == hash(by_keyword())
    assert len({record, by_keyword(), other}) == 2
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == by_keyword()


def test_coloring_keeps_a_read_only_copy_of_kappa():
    kappa = {1: 1, 2: 2}
    coloring = Coloring(kappa, (1, 1))
    kappa[2] = 1
    assert coloring.kappa == {1: 1, 2: 2}
    with pytest.raises(TypeError):
        coloring.kappa[2] = 1
    with pytest.raises(TypeError):
        del coloring.kappa[1]
    assert coloring == Coloring({2: 2, 1: 1}, (1, 1))
    assert hash(coloring) == hash(Coloring({2: 2, 1: 1}, (1, 1)))
    assert type(copy.deepcopy(coloring).kappa) is type(coloring.kappa)


@pytest.mark.parametrize("name", ["RelationReport", "Classification"])
def test_mutable_records_are_unhashable(name):
    by_position, _, _, other = CASES[name]
    record = by_position()
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(record)
    for name in FIELDS[type(record)]:
        setattr(record, name, getattr(other, name))
    assert record == other


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trip(name):
    record = CASES[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_field_spec_accepts_zero_and_primes(p):
    assert FieldSpec(p).characteristic == p
    assert type(FieldSpec(p).characteristic) is int


@pytest.mark.parametrize("value", [1, 4, -2, 2.0, 3.0, "2", None, True, False])
def test_field_spec_rejects_non_prime_and_non_int(value):
    with pytest.raises(ValidationError, match=re.escape(repr(value))):
        FieldSpec(value)


def test_cold_import_loads_no_dataclasses_or_inspect():
    # one fresh isolated interpreter: the modules that importing dskit.cli
    # adds to those the interpreter had already loaded at start-up
    src = Path(dskit.__file__).resolve().parents[1]
    probe = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import dskit, dskit.cli; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(out.stdout.split())
    assert {"dskit", "dskit.cli", "dskit.homology"} <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
