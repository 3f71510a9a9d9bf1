"""Tests for the value records: immutable, slotted, and strict about what a value is."""
import copy
import dataclasses
import math
import pickle
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from betatrust import (
    Decision,
    Edge,
    InvalidVarianceError,
    Network,
    RangeError,
    RiskAppetite,
    ScenarioConfig,
    TrustEstimate,
    evaluate_request,
    generate_network,
    run_assessment,
)
from betatrust.decision import TrustRecord, risk_value
from betatrust.fusion import BetaParams, FusionWeights, beta_pdf
from betatrust.netsim import EdgeError

RECORDS = [
    TrustEstimate(0.6, 0.02),
    BetaParams(2.0, 3.0),
    FusionWeights(0.4, 0.6, 10.0),
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
        (lambda: risk_value(0.5, False), RangeError, "achieved must lie in [0, 1], got False"),
        (lambda: beta_pdf(BetaParams(2.0, 3.0), True), RangeError,
         "x must lie in [0, 1], got True"),
        (lambda: ScenarioConfig(seed=1, node_count=3, edge_probability=True), RangeError,
         "edge_probability must lie in [0, 1], got True"),
        (lambda: ScenarioConfig(seed=1, node_count=3, edge_probability=0.5,
                                variance_indirect=True),
         InvalidVarianceError, "variance_indirect must be positive, got True"),
        (lambda: evaluate_request(np.True_, TrustEstimate(0.2), TrustEstimate(0.3)), RangeError,
         f"required must lie in [0, 1], got {np.True_!r}"),
    ],
    ids=["mean-True", "mean-False", "variance-True", "appetite-True", "appetite-False",
         "scenario-appetite", "required", "combiner", "risk_value", "beta_pdf",
         "scenario-edge_probability", "scenario-variance", "required-numpy-bool"],
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
    "risk_value.required": (lambda value: risk_value(value, 0.5), "required", UNIT),
    "risk_value.achieved": (lambda value: risk_value(0.5, value), "achieved", UNIT),
    "beta_pdf.x": (lambda value: beta_pdf(BetaParams(2.0, 3.0), value), "x", UNIT),
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
