"""The value-record contract: construction, repr, equality, hashing,
immutability and pickling of every record the package defines."""

import importlib.util
import pickle
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from starmetric.decision import CenterWitness, DiagnosisReport, ForbiddenWitness, Verdict
from starmetric.diametrical import MultipartiteSignature, SimpleGraph
from starmetric.errors import NotUltrametricError, _Record
from starmetric.lab import ConjectureReport, EquidistantCheck, GeneratorSpec, K112Check, K13Check
from starmetric.similarity import QuadModel, WeakSimilarityWitness
from starmetric.spaces import Spectrum, UltraDiagnosis, Violation
from starmetric.stars import LabeledStarGraph, LabeledTree

VIOLATION = Violation("a", "b", "c", F(3), F(1, 2))
VIOLATION_REPR = "Violation(x='a', via='b', y='c', lhs=Fraction(3, 1), bound=Fraction(1, 2))"
WITNESS = WeakSimilarityWitness((("a", "x"), ("b", "y")), ((F(2), F(1)),))
WITNESS_REPR = (
    "WeakSimilarityWitness(phi=(('a', 'x'), ('b', 'y')), f_pairs=((Fraction(2, 1), Fraction(1, 1)),))"
)

# each record with its fields in order and the repr a frozen dataclass of the
# same fields gives
RECORDS = [
    (Violation, {"x": "a", "via": "b", "y": "c", "lhs": F(3), "bound": F(1, 2)}, VIOLATION_REPR),
    (
        UltraDiagnosis,
        {"is_metric": True, "is_ultrametric": False, "violation": VIOLATION},
        f"UltraDiagnosis(is_metric=True, is_ultrametric=False, violation={VIOLATION_REPR})",
    ),
    (
        Spectrum,
        {"values": (F(0), F(1), F(5, 2))},
        "Spectrum(values=(Fraction(0, 1), Fraction(1, 1), Fraction(5, 2)))",
    ),
    (
        SimpleGraph,
        {"vertices": ("a", "b", "c"), "edges": frozenset({("a", "b")})},
        "SimpleGraph(vertices=('a', 'b', 'c'), edges=frozenset({('a', 'b')}))",
    ),
    (
        MultipartiteSignature,
        {"sizes": (1, 3), "parts": (("a",), ("b", "c", "d"))},
        "MultipartiteSignature(sizes=(1, 3), parts=(('a',), ('b', 'c', 'd')))",
    ),
    (CenterWitness, {"center": "s1"}, "CenterWitness(center='s1')"),
    (
        ForbiddenWitness,
        {"quad": ("p1", "p2", "p3", "p4"), "signature": (2, 2), "model": "X4"},
        "ForbiddenWitness(quad=('p1', 'p2', 'p3', 'p4'), signature=(2, 2), model='X4')",
    ),
    (
        DiagnosisReport,
        {"verdict": Verdict.US, "center": CenterWitness("s1"), "forbidden": None},
        "DiagnosisReport(verdict=<Verdict.US: 'US'>, center=CenterWitness(center='s1'), forbidden=None)",
    ),
    (
        WeakSimilarityWitness,
        {"phi": (("a", "x"), ("b", "y")), "f_pairs": ((F(2), F(1)),)},
        WITNESS_REPR,
    ),
    (QuadModel, {"model": "Y4", "witness": WITNESS}, f"QuadModel(model='Y4', witness={WITNESS_REPR})"),
    (
        LabeledTree,
        {"vertices": ("a", "b"), "edges": (("a", "b"),), "labels": (F(0), F(1))},
        "LabeledTree(vertices=('a', 'b'), edges=(('a', 'b'),), labels=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    (
        LabeledStarGraph,
        {
            "center": "c", "center_label": F(0), "leaves": ("a", "b"),
            "leaf_labels": (F(1), F(2)), "order": ("a", "c", "b"),
        },
        "LabeledStarGraph(center='c', center_label=Fraction(0, 1), leaves=('a', 'b'), "
        "leaf_labels=(Fraction(1, 1), Fraction(2, 1)), order=('a', 'c', 'b'))",
    ),
    (
        GeneratorSpec,
        {
            "n": 5, "alphabet": (F(1), F(3, 2)), "mode": "sample", "seed": 7, "count": 9,
            "override_caps": True,
        },
        "GeneratorSpec(n=5, alphabet=(Fraction(1, 1), Fraction(3, 2)), mode='sample', seed=7, "
        "count=9, override_caps=True)",
    ),
    (
        EquidistantCheck,
        {"all_equal": True, "all_quads_k1111": True},
        "EquidistantCheck(all_equal=True, all_quads_k1111=True)",
    ),
    (
        K112Check,
        {
            "every_quad_k112": False, "every_quad_w4_similar": False,
            "whole_space_w4_similar": None,
            "biconditional_violations": (("p1", "p2", "p3", "p4"),),
        },
        "K112Check(every_quad_k112=False, every_quad_w4_similar=False, "
        "whole_space_w4_similar=None, biconditional_violations=(('p1', 'p2', 'p3', 'p4'),))",
    ),
    (
        K13Check,
        {
            "statement_i": True, "statement_ii": True, "statement_iii": False,
            "disagreements": (("i", "iii"), ("ii", "iii")),
        },
        "K13Check(statement_i=True, statement_ii=True, statement_iii=False, "
        "disagreements=(('i', 'iii'), ('ii', 'iii')))",
    ),
    (
        ConjectureReport,
        {
            "conjecture": "k13", "mode": "exhaustive", "n": 4, "alphabet": (F(1), F(2)),
            "seed": 0, "requested": None, "instances": 61, "status": "EXHAUSTED_HOLDS",
            "counterexample": None, "interpretation": "note", "wall_time_s": 0.25,
        },
        "ConjectureReport(conjecture='k13', mode='exhaustive', n=4, "
        "alphabet=(Fraction(1, 1), Fraction(2, 1)), seed=0, requested=None, instances=61, "
        "status='EXHAUSTED_HOLDS', counterexample=None, interpretation='note', wall_time_s=0.25)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]

each_record = pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)


def test_the_table_lists_every_record_of_the_package():
    defined = {cls for cls in _Record.__subclasses__() if cls.__module__.startswith("starmetric.")}
    assert defined == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == 17


@each_record
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_violation_text_is_what_the_benchmark_parses(monkeypatch):
    # the benchmark's checker imports its generator as a top-level module
    monkeypatch.setitem(sys.modules, "gen", _bench_module("gen"))
    check = _bench_module("check")
    stderr = f"error: {NotUltrametricError(VIOLATION)}\n"
    assert stderr == f"error: space is not ultrametric: {VIOLATION_REPR}\n"
    match = check._VIOLATION.fullmatch(stderr)
    assert match is not None
    assert match.groups() == ("a", "b", "c", "3", "1", "1", "2")


@each_record
def test_positional_and_keyword_construction_agree(cls, fields, text):
    values = list(fields.values())
    first, *rest = fields
    by_position = cls(*values)
    assert by_position == cls(**fields)
    assert by_position == cls(fields[first], **{name: fields[name] for name in rest})
    assert [getattr(by_position, name) for name in fields] == values


@each_record
def test_equal_only_within_one_class_and_equal_records_hash_alike(cls, fields, text):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    other = cls(*list(fields.values())[:-1], object())
    assert record != other
    # a record of another class with the same fields and values
    lookalike = type(cls.__name__, (_Record,), {"_fields": tuple(fields)})(*fields.values())
    assert record != lookalike and lookalike != record
    assert record != tuple(fields.values())


@each_record
def test_assignment_and_deletion_raise(cls, fields, text):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@each_record
def test_pickle_round_trip(cls, fields, text):
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and repr(copy) == text


@pytest.mark.parametrize(
    "call",
    [
        lambda: Violation("a", "b", "c", F(3)),
        lambda: CenterWitness("a", "b"),
        lambda: CenterWitness(centre="a"),
        lambda: CenterWitness("a", center="b"),
        lambda: LabeledStarGraph("c", F(0), ("a",), (F(1),), ("c", "a"), order=("a", "c")),
    ],
    ids=["missing", "too-many", "unknown-keyword", "twice", "default-twice"],
)
def test_bad_calls_are_type_errors(call):
    with pytest.raises(TypeError, match=r"\(\) takes each of its fields \("):
        call()


class TestDefaultsAndNormalisation:
    def test_star_order_defaults_to_the_center_then_the_leaves(self):
        star = LabeledStarGraph("c", F(0), ("a", "b"), (F(1), F(2)))
        assert star.order == ("c", "a", "b")
        assert LabeledStarGraph("c", F(0), ("a", "b"), (F(1), F(2)), ()) == star
        assert LabeledStarGraph("c", F(0), ("a", "b"), (F(1), F(2)), order=("a", "c", "b")) != star

    def test_generator_spec_defaults(self):
        spec = GeneratorSpec(3, ("1", "2"))
        assert (spec.mode, spec.seed, spec.count, spec.override_caps) == ("exhaustive", 0, 0, False)
        assert spec == GeneratorSpec(n=3, alphabet=(F(1), F(2)), mode="exhaustive")

    def test_generator_spec_parses_its_alphabet(self):
        spec = GeneratorSpec(n=4, alphabet=("1/2", "1", 3), mode="sample", count=2)
        assert spec.alphabet == (F(1, 2), F(1), F(3))
        assert all(type(v) is F for v in spec.alphabet)
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 0, "alphabet": ("1",)}, "n must be at least 1"),
            ({"n": 3, "alphabet": ("1",), "mode": "random"}, "unknown generator mode 'random'"),
            ({"n": 3, "alphabet": ("1",), "count": -1}, "sample count must be non-negative"),
            ({"n": 3, "alphabet": ("0", "1")}, "alphabet values must be positive"),
            ({"n": 3, "alphabet": ("2", "1")}, "alphabet must be strictly increasing"),
            ({"n": 3, "alphabet": ("1", "1")}, "alphabet must be strictly increasing"),
        ],
    )
    def test_generator_spec_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(**kwargs)
