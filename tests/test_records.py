"""The seven record types: frozen, with fixed fields, defaults and repr.

What is checked here is behaviour a caller sees, not how the records are
built: the constructor's signature, the repr text, that no field can be
set, hashing, pickling, the properties and methods, and that isinstance
tells one record type from another and from a plain point.
"""

import inspect
import json
import pickle

import pytest

from pellprime.conic import ConicParams
from pellprime.modarith import Factor
from pellprime.primality import Outcome, Verdict, strong_pell_test_param
from pellprime.recurrence import LucasParams, MatrixParams
from pellprime.scan import GridReport, ScanReport
from pellprime.selectors import _tested

STATS = {"tested": 49, "probable_prime": 25, "composite": 24,
         "params_invalid": 0, "short_circuited": 0, "sieved": 0,
         "pseudoprimes": 1}
CELLS = ({"P": 1, "Q": -1, "skipped": False, "count": 0},
         {"P": 1, "Q": 0, "skipped": True, "count": None})

# (record built from its required fields, its signature as
# (name, default) pairs with None for a required field, its repr)
RECORDS = [
    (Factor(7), [("value", None)], "Factor(value=7)"),
    (LucasParams(1, -1), [("P", None), ("Q", None)],
     "LucasParams(P=1, Q=-1)"),
    (MatrixParams(1, -1, 2), [("P", None), ("Q", None), ("R", None)],
     "MatrixParams(P=1, Q=-1, R=2)"),
    (ConicParams(5, 3, 2), [("D", None), ("x", None), ("y", None)],
     "ConicParams(D=5, x=3, y=2)"),
    (Verdict(Outcome.COMPOSITE),
     [("outcome", None), ("evidence", (None,)), ("factor", (None,)),
      ("jacobi_branch", (None,)), ("stage", ("test",))],
     "Verdict(outcome=<Outcome.COMPOSITE: 'composite'>, evidence=None, "
     "factor=None, jacobi_branch=None, stage='test')"),
    (ScanReport("lucas", "P=4,Q=1", 3, 100, (65,), STATS),
     [("method", None), ("params", None), ("lo", None), ("hi", None),
      ("pseudoprimes", None), ("stats", None), ("elapsed", (0.0,))],
     f"ScanReport(method='lucas', params='P=4,Q=1', lo=3, hi=100, "
     f"pseudoprimes=(65,), stats={STATS!r}, elapsed=0.0)"),
    (GridReport("lucas", (("P", (1,)), ("Q", (-1, 0))), 100, CELLS),
     [("method", None), ("axes", None), ("limit", None), ("cells", None),
      ("elapsed", (0.0,)), ("variant", (None,))],
     f"GridReport(method='lucas', axes=(('P', (1,)), ('Q', (-1, 0))), "
     f"limit=100, cells={CELLS!r}, elapsed=0.0, variant=None)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, signature, text", RECORDS, ids=IDS)
def test_each_record_keeps_its_fields_defaults_and_repr(record, signature,
                                                        text):
    parameters = inspect.signature(type(record)).parameters.values()
    assert [(p.name, None if p.default is p.empty else (p.default,))
            for p in parameters] == signature
    assert repr(record) == text
    # Every field given by keyword, in any order, builds the same record.
    names = [name for name, _ in signature]
    values = {name: getattr(record, name) for name in reversed(names)}
    assert type(record)(**values) == record


@pytest.mark.parametrize("record, signature, text", RECORDS, ids=IDS)
def test_each_record_is_frozen(record, signature, text):
    for name, _ in signature:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.other = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, signature, text", RECORDS, ids=IDS)
def test_each_record_hashes_by_value_and_survives_pickle(record, signature,
                                                         text):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
    twin = type(record)(**{name: getattr(record, name)
                           for name, _ in signature})
    if isinstance(record, (ScanReport, GridReport)):
        with pytest.raises(TypeError):  # they hold dicts, as they did
            hash(record)
    else:
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin, copy}) == 1


def test_matrix_params_reject_r_zero():
    with pytest.raises(ValueError, match="R must be nonzero"):
        MatrixParams(1, 1, 0)
    with pytest.raises(ValueError, match="R must be nonzero"):
        MatrixParams(P=1, Q=1, R=0)


def test_properties_and_methods_are_kept():
    assert LucasParams(1, -1).discriminant == 5
    assert MatrixParams(3, 2, 2).discriminant == -7
    assert ConicParams(-3, 7, -2).point(5) == (2, 3)
    assert Verdict(Outcome.PROBABLE_PRIME).is_probable_prime
    assert not Verdict(Outcome.COMPOSITE, factor=3).is_probable_prime


def test_scan_report_count_and_serializations_are_unchanged():
    report = ScanReport("lucas", "P=4,Q=1", 3, 100, (65, 99), STATS, 1.23456)
    assert report.count == len(report.pseudoprimes) == 2
    assert report.to_dict() == {
        "method": "lucas", "params": "P=4,Q=1", "lo": 3, "hi": 100,
        "count": 2, "pseudoprimes": [65, 99], "stats": dict(sorted(
            STATS.items())), "elapsed_s": 1.235}
    assert report.canonical_json() == (
        '{"count": 2, "hi": 100, "lo": 3, "method": "lucas", "params": '
        '"P=4,Q=1", "pseudoprimes": [65, 99], "stats": {"composite": 24, '
        '"params_invalid": 0, "probable_prime": 25, "pseudoprimes": 1, '
        '"short_circuited": 0, "sieved": 0, "tested": 49}}')
    grid = GridReport("matrix", (("R", (2,)),), 100, CELLS, 0.5, "u-companion")
    assert json.dumps(grid.to_dict(), sort_keys=True) == (
        '{"axes": [{"name": "R", "values": [2]}], "cells": [{"P": 1, '
        '"Q": -1, "count": 0, "skipped": false}, {"P": 1, "Q": 0, '
        '"count": null, "skipped": true}], "elapsed_s": 0.5, "limit": 100, '
        '"method": "matrix", "variant": "u-companion"}')


def test_isinstance_tells_a_verdict_from_params_and_a_factor_from_a_point():
    verdict = Verdict(Outcome.COMPOSITE, evidence="walk")
    for params in (LucasParams(1, -1), MatrixParams(1, 2, 2),
                   ConicParams(5, 3, 2)):
        assert not isinstance(params, Verdict)
        assert _tested(15, params, lambda n, p: (n, p)) == (15, params)
        assert _tested(15, verdict, lambda n, p: (n, p)) is verdict
    assert not isinstance((3, 4), Factor) and not isinstance(verdict, Factor)
    # gcd(3^2 - 3, 15) = 3 is a factor; 4^2 ≡ 3 (mod 13) has no point; for
    # a = 1 the point is defined and the test runs.
    assert strong_pell_test_param(15, 3, 3) == Verdict(
        Outcome.COMPOSITE, evidence="gcd(a^2 - D, n) = 3", factor=3)
    assert strong_pell_test_param(13, 3, 4).outcome is Outcome.PARAMS_INVALID
    assert strong_pell_test_param(13, 3, 1).is_probable_prime
