"""Tests for the value records: immutable, slotted, and strict about what a value is."""
import copy
import dataclasses
import math
import pickle
import warnings
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from betatrust import (
    ConfigurationError,
    Decision,
    Edge,
    InvalidVarianceError,
    Network,
    NetworkDocumentError,
    RangeError,
    RiskAppetite,
    ScenarioConfig,
    TrustError,
    TrustEstimate,
    combined_trust,
    evaluate_request,
    generate_network,
    run_assessment,
)
from betatrust.cli import main
from betatrust.decision import TrustRecord
from betatrust.documents import document_to_network
from betatrust.fusion import _checked_source
from betatrust.netsim import EDGE_COLUMNS, EdgeError

RECORDS = [
    TrustEstimate(0.6, 0.02),
    RiskAppetite(0.25),
    TrustRecord(0.6, 0.1, Decision.DECLINE),
    Edge(0.7, TrustEstimate(0.6), TrustEstimate(0.4, 0.02)),
    EdgeError(1, 2, "InvalidVarianceError", "variance must be positive, got 0.0"),
    ScenarioConfig(seed=7, node_count=5, edge_probability=0.3),
]
IDS = [type(record).__name__ for record in RECORDS]


def field_values(record) -> tuple:
    return tuple(getattr(record, field.name) for field in dataclasses.fields(record))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
class TestValueRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)

    def test_slotted_without_dict_or_weak_references(self, record):
        assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(record)

    def test_equality_and_hash_follow_the_fields(self, record):
        twin = type(record)(*field_values(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(field_values(record))
        first = dataclasses.fields(record)[0].name
        other = dataclasses.replace(record, **{first: 0 if getattr(record, first) == 1 else 1})
        assert other != record

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, record, protocol):
        again = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(again) is type(record)
        assert again == record and field_values(again) == field_values(record)

    def test_copies_and_replace_round_trip(self, record):
        for again in (copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)):
            assert type(again) is type(record)
            assert again == record and hash(again) == hash(record)


def _true_combiner(direct, indirect):
    return True


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: TrustEstimate(True), RangeError, "mean must lie in [0, 1], got True"),
        (lambda: TrustEstimate(False), RangeError, "mean must lie in [0, 1], got False"),
        (lambda: TrustEstimate(0.5, True), InvalidVarianceError,
         "variance must be positive, got True"),
        (lambda: RiskAppetite(True), RangeError,
         "max_acceptable_risk must lie in [0, 1], got True"),
        (lambda: RiskAppetite(False), RangeError,
         "max_acceptable_risk must lie in [0, 1], got False"),
        (lambda: ScenarioConfig(seed=1, node_count=3, edge_probability=0.5,
                                max_acceptable_risk=True),
         RangeError, "max_acceptable_risk must lie in [0, 1], got True"),
        (lambda: evaluate_request(True, TrustEstimate(0.2), TrustEstimate(0.3)), RangeError,
         "required must lie in [0, 1], got True"),
        (lambda: evaluate_request(0.9, TrustEstimate(0.2), TrustEstimate(0.3),
                                  combiner=_true_combiner),
         RangeError, "achieved must lie in [0, 1], got True"),
        (lambda: ScenarioConfig(seed=1, node_count=3, edge_probability=True), RangeError,
         "edge_probability must lie in [0, 1], got True"),
        (lambda: ScenarioConfig(seed=1, node_count=3, edge_probability=0.5,
                                variance_indirect=True),
         InvalidVarianceError, "variance_indirect must be positive, got True"),
        (lambda: evaluate_request(np.True_, TrustEstimate(0.2), TrustEstimate(0.3)), RangeError,
         f"required must lie in [0, 1], got {np.True_!r}"),
        # numpy gives a list that mixes bools and numbers the numbers' dtype
        (lambda: Network(2, [1, 2], [2, 1], [True, 0.5], *[[0.5, 0.5]] * 4, [0.0, 0.0]),
         ConfigurationError, "required must hold numbers, got bool"),
        (lambda: Network(2, [1], [2], *[[0.5]] * 5, [0.0, np.True_]),
         ConfigurationError, "max_risk must hold numbers, got bool"),
    ],
    ids=["mean-True", "mean-False", "variance-True", "appetite-True", "appetite-False",
         "scenario-appetite", "required", "combiner", "scenario-edge_probability",
         "scenario-variance", "required-numpy-bool", "Network-column-list",
         "Network-max_risk-list"],
)
def test_a_bool_is_not_a_trust_value(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_a_combiner_returning_a_bool_fails_its_edge():
    network = Network(
        node_count=2, src=[1], dst=[2], required=[0.9],
        direct_mean=[0.2], direct_variance=[0.01],
        indirect_mean=[0.3], indirect_variance=[0.01],
        max_risk=[0.0, 0.0],
    )
    result = run_assessment(network, _true_combiner)
    assert result.errors == [EdgeError(1, 2, "RangeError", "achieved must lie in [0, 1], got True")]
    assert result.decisions == {}
    assert not result.c_matrix[0, 1] and not result.r_matrix[0, 1]
    # numbers of any float type still pass
    assert run_assessment(network, lambda a, b: np.float64(0.95)).decisions == {
        (1, 2): Decision.ACCEPT_COMBINED}


def _scenario(field):
    def build(value):
        config = ScenarioConfig(seed=1, node_count=3, **{"edge_probability": 0.5, field: value})
        return generate_network(config)  # an accepted value must also generate
    return build


# The two value rules, as the error and the message each raises.
UNIT = (RangeError, "{name} must lie in [0, 1], got {value!r}")
VARIANCE = (InvalidVarianceError, "{name} must be positive, got {value!r}")

# Every scalar entry point for a trust value or a variance, as (build, name, rule):
# build(value) passes value to the entry point and uses it.
ENTRY_POINTS = {
    "TrustEstimate.mean": (TrustEstimate, "mean", UNIT),
    "TrustEstimate.variance": (lambda value: TrustEstimate(0.5, value), "variance", VARIANCE),
    "RiskAppetite": (RiskAppetite, "max_acceptable_risk", UNIT),
    "evaluate_request.required": (
        lambda value: evaluate_request(value, TrustEstimate(0.2), TrustEstimate(0.3)),
        "required", UNIT),
    "evaluate_request.combined": (
        lambda value: evaluate_request(0.9, TrustEstimate(0.2), TrustEstimate(0.3),
                                       combiner=lambda direct, indirect: value),
        "achieved", UNIT),
    **{f"ScenarioConfig.{field}": (_scenario(field), field, rule) for field, rule in (
        ("edge_probability", UNIT), ("variance_direct", VARIANCE),
        ("variance_indirect", VARIANCE), ("max_acceptable_risk", UNIT))},
}

# (id, value, accepted as a trust value, accepted as a variance)
POLICY_VALUES = [
    ("0.0", 0.0, True, False),
    ("-0.0", -0.0, True, False),
    ("1.0", 1.0, True, True),
    ("next-above-1", math.nextafter(1.0, 2.0), False, True),
    ("-5e-324", -5e-324, False, False),
    ("nan", math.nan, False, False),
    ("inf", math.inf, False, True),
    ("-inf", -math.inf, False, False),
    ("True", True, False, False),
    ("False", False, False, False),
    ("numpy-True", np.True_, False, False),
    ("float32", np.float32(0.25), True, True),
    ("int64-1", np.int64(1), True, True),
    ("Fraction", Fraction(1, 4), True, True),
    ("Decimal", Decimal("0.5"), False, False),
    ("str", "0.5", False, False),
    ("None", None, False, False),
    ("complex", 1j, False, False),
]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("value, as_unit, as_variance",
                         [pytest.param(*case[1:], id=case[0]) for case in POLICY_VALUES])
def test_every_scalar_entry_point_follows_the_value_policy(entry, value, as_unit, as_variance):
    build, name, (error, message) = ENTRY_POINTS[entry]
    accepted = as_unit if error is RangeError else as_variance
    if accepted:
        build(value)
        return
    with pytest.raises(error) as caught:
        build(value)
    assert str(caught.value) == message.format(name=name, value=value)


@pytest.mark.parametrize("value, as_unit",
                         [pytest.param(*case[1:3], id=case[0]) for case in POLICY_VALUES])
def test_run_assessment_checks_the_combined_value_by_the_policy(value, as_unit):
    network = Network(
        node_count=2, src=[1], dst=[2], required=[1.0],
        direct_mean=[0.2], direct_variance=[0.01],
        indirect_mean=[0.3], indirect_variance=[0.01],
        max_risk=[1.0, 1.0],
    )
    result = run_assessment(network, lambda direct, indirect: value)
    if as_unit:
        assert result.errors == []
        assert result.c_matrix[0, 1] == value and result.r_matrix[0, 1] == 1.0 - value
        return
    assert result.errors == [
        EdgeError(1, 2, "RangeError", f"achieved must lie in [0, 1], got {value!r}")]
    assert result.decisions == {}


def _network_door(column):
    def build(value):
        fields = {**dict(zip(EDGE_COLUMNS, (0.5, 0.5, 0.01, 0.5, 0.01))), "max_risk": 0.0}
        fields[column] = value
        return Network(2, [1], [2], *([fields[name]] for name in EDGE_COLUMNS),
                       [0.0, fields["max_risk"]])
    return build


def _document_door(section, key):
    def build(value):
        doc = {"schema_version": 1, "nodes": [1, 2], "edges": [
            {"from": 1, "to": 2, "required": 0.5, "direct_mean": 0.5, "indirect_mean": 0.5}]}
        (doc["edges"][0] if section == "edges" else doc.setdefault(section, {}))[key] = value
        return document_to_network(doc)
    return build


def _rule(name):
    return VARIANCE if name.endswith("variance") else UNIT


# Every door that takes a trust value or a variance, as (build, name, rule): build(value)
# passes value through the door, and the error names it with the door's prefix.
DOORS = {
    **{entry: ENTRY_POINTS[entry] for entry in (
        "TrustEstimate.mean", "TrustEstimate.variance", "RiskAppetite",
        *(entry for entry in ENTRY_POINTS if entry.startswith("ScenarioConfig.")))},
    **{f"Network.{name}": (_network_door(name), f"edge (1, 2): {name}", _rule(name))
       for name in EDGE_COLUMNS},
    "Network.max_risk": (_network_door("max_risk"), "node 2: max_risk", UNIT),
    **{f"document.edges.{key}": (_document_door("edges", key), f"edges[0]: field {key!r}",
                                 _rule(key)) for key in EDGE_COLUMNS},
    **{f"document.defaults.{key}": (_document_door("defaults", key),
                                    f"defaults: field {key!r}", _rule(key))
       for key in ("variance", "max_acceptable_risk")},
    "document.appetites": (_document_door("appetites", "2"), "appetites.2: field 'appetite'",
                           UNIT),
}

# Values that break a rule; a document's non-finite numbers fail earlier, as not finite.
DOOR_VALUES = [-0.5, 1.5, math.nextafter(1.0, 2.0), 0.0, -1.0, math.nan, math.inf, -math.inf]


def _breaks(rule, value):
    return not (0.0 <= value <= 1.0 if rule is UNIT else value > 0.0)


@pytest.mark.parametrize("door, value", [
    pytest.param(door, value, id=f"{door}-{value!r}")
    for door, (_, _, rule) in DOORS.items() for value in DOOR_VALUES
    if _breaks(rule, value) and (math.isfinite(value) or not door.startswith("document."))])
def test_every_door_applies_the_same_rule(door, value):
    build, name, (error, message) = DOORS[door]
    with pytest.raises(NetworkDocumentError if door.startswith("document.") else error) as caught:
        build(value)
    assert str(caught.value) == message.format(name=name, value=value)


# Every command-line option that takes a trust value or a variance, as (command line,
# name, rule): the command line, with the option's value in place of {value}, exits 1 and
# prints the rule's message after "betatrust <command>: ". fuse and decide name a source
# by its mean option, also when --var, --var-a or --var-b set its variance.
OPTIONS = {
    "fuse --a": ("fuse --a={value} --b 0.5", "--a: mean", UNIT),
    "fuse --b": ("fuse --a 0.5 --b={value}", "--b: mean", UNIT),
    "fuse --var": ("fuse --a 0.5 --b 0.5 --var={value}", "--a: variance", VARIANCE),
    "fuse --var-a": ("fuse --a 0.5 --b 0.5 --var-a={value}", "--a: variance", VARIANCE),
    "fuse --var-b": ("fuse --a 0.5 --b 0.5 --var-b={value}", "--b: variance", VARIANCE),
    "decide --t": ("decide --t={value} --a 0.5 --b 0.5", "required", UNIT),
    "decide --a": ("decide --t 0.9 --a={value} --b 0.5", "--a: mean", UNIT),
    "decide --b": ("decide --t 0.9 --a 0.5 --b={value}", "--b: mean", UNIT),
    "decide --var": ("decide --t 0.9 --a 0.5 --b 0.5 --var={value}", "--a: variance",
                     VARIANCE),
    "decide --appetite": ("decide --t 0.9 --a 0.5 --b 0.5 --appetite={value}",
                          "max_acceptable_risk", UNIT),
    "simulate --edge-prob": ("simulate --nodes 3 --edge-prob={value}", "edge_probability",
                             UNIT),
    "simulate --var": ("simulate --nodes 3 --var={value}", "variance_direct", VARIANCE),
    "simulate --appetite": ("simulate --nodes 3 --appetite={value}", "max_acceptable_risk",
                            UNIT),
}


@pytest.mark.parametrize("option, value", [
    pytest.param(option, value, id=f"{option}-{value!r}")
    for option, (_, _, rule) in OPTIONS.items() for value in DOOR_VALUES
    if _breaks(rule, value)])
def test_every_option_applies_the_same_rule(capsys, tmp_path, option, value):
    line, name, (_, message) = OPTIONS[option]
    argv = [part.format(value=repr(value)) for part in line.split()]
    out = tmp_path / "out"
    if argv[0] == "simulate":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"betatrust {argv[0]}: {message.format(name=name, value=value)}\n")
    assert not out.exists()  # simulate checks its values before it makes --out


# (T, A, variance of A, B, variance of B, appetite) of requests that reach C; a numpy
# float kind takes every value, an integer kind only the ints
NUMPY_REQUESTS = [
    (0.9, 0.3, 0.01, 0.4, 0.01, 0.0),
    (0.9, 0.3, 0.02, 0.4, 0.005, 0.6),
    (0.7148, 0.6844, 0.01, 0.0445, 0.01, 1.0),
    (0.5, 0.1, 0.03, 0.2, 0.001, 0.25),
    (1, 0.3, 0.01, 0.4, 0.01, 0),
    (1, 0, 1, 0, 1, 1),  # the variance 1 fails the fusion
]


def _typed(kind, value):
    return kind(value) if issubclass(kind, np.floating) or type(value) is int else value


def _python(value):
    return value.item() if isinstance(value, np.generic) else value


def _decide(values, combiner):
    """The record of the request, or the TrustError it raises."""
    required, a, var_a, b, var_b, appetite = values
    try:
        return evaluate_request(required, TrustEstimate(a, var_a), TrustEstimate(b, var_b),
                                RiskAppetite(appetite), combiner)
    except TrustError as exc:
        return exc


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.int8, np.int64,
                                  np.uint64])
@pytest.mark.parametrize("fixed", [None, 0.375, 0], ids=["beta", "fixed-C", "fixed-C-0"])
@pytest.mark.parametrize("values", NUMPY_REQUESTS)
def test_numpy_numbers_decide_as_the_python_numbers_of_the_same_value(kind, fixed, values):
    typed = [_typed(kind, value) for value in values]
    plain = [_python(value) for value in typed]
    combiners = combined_trust, combined_trust
    if fixed is not None:
        c = _typed(kind, fixed)
        combiners = (lambda direct, indirect: c), (lambda direct, indirect: _python(c))
    record, expected = _decide(typed, combiners[0]), _decide(plain, combiners[1])
    estimate, appetite = TrustEstimate(typed[1], typed[2]), RiskAppetite(typed[5])
    assert [type(estimate.mean), type(estimate.variance), type(appetite.max_acceptable_risk)] \
        == [type(plain[1]), type(plain[2]), type(plain[5])]
    required, a, var_a, b, var_b, appetite = typed
    network = Network(node_count=2, src=[1], dst=[2], required=[required],
                      direct_mean=[a], direct_variance=[var_a],
                      indirect_mean=[b], indirect_variance=[var_b],
                      max_risk=[appetite, appetite])
    result = run_assessment(network, combiners[0])
    if isinstance(expected, TrustError):
        assert (type(record), str(record)) == (type(expected), str(expected))
        assert [error.kind for error in result.errors] == [type(expected).__name__]
        return
    assert record == expected
    # the same Python numbers, bit for bit: a float's repr gives back its bits
    assert [(type(x), repr(x)) for x in (record.combined, record.risk)] == [
        (type(x), repr(x)) for x in (expected.combined, expected.risk)]
    assert result.c_matrix[0, 1] == record.combined and result.r_matrix[0, 1] == record.risk
    assert result.decisions == {(1, 2): record.decision}


def test_a_tiny_numpy_variance_fuses_in_float64():
    tiny = np.float32(1e-45)  # passes the float64 floor, overflows float32 shapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direct = TrustEstimate(0.5, tiny)
        record = evaluate_request(0.9, direct, TrustEstimate(0.4))
        shapes = _checked_source(direct.mean, direct.variance)
    assert direct.variance == float(tiny) and type(direct.variance) is float
    assert record.combined == combined_trust(TrustEstimate(0.5, float(tiny)), TrustEstimate(0.4))
    assert record.combined == 0.5
    assert all(math.isfinite(shape) for shape in shapes)


def test_a_numpy_number_is_checked_as_the_number_it_is_used_as():
    tiny = np.longdouble(2.0) ** -1100  # the float 0.0, where a long double is wider
    with pytest.raises(InvalidVarianceError):
        TrustEstimate(0.5, tiny)
    assert TrustEstimate(tiny).mean == 0.0
