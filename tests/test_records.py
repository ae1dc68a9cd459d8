"""Every report record is an immutable value."""

import pytest

from minflow import codes, factors, joins, pairs

ADDRESS = factors.OdometerAddress((0, 1, 1), 2)

# (record type, the values of its fields, one field)
RECORDS = [
    (codes.GroupShapeReport, ("Z", ((-1, 0), (0, 0), (1, 0)), 0, 3),
     "shape"),
    (factors.OdometerAddress, ((0, 1, 1), 2), "digits"),
    (factors.FiberCensus, (ADDRESS, 3, 1, ("010", "101"), 2, 1, True),
     "windows"),
    (factors.FrequencyTable, ("morse", 1, 4, (("0", 2), ("1", 2))),
     "counts"),
    (pairs.PairClassification, (pairs.DISTAL, 8, 1, None, 2), "verdict"),
    (pairs.CollapsePattern, ("forward", 8, 1, (("mu", "nu"),)), "classes"),
    (pairs.DistalCertificate, (True, 12, 8, 8, 1, (("flip", pairs.DISTAL),),
                               "all co-fiber candidates distal"), "granted"),
    (joins.JointLanguage, (1, 4, {("010", "101"): 0}, None, None),
     "pair_times"),
    (joins.DichotomyVerdict, ("case1", 1, 4, None, None, 0,
                              "flipped target pair observed"), "case"),
]


@pytest.mark.parametrize("record,values,field", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
def test_records_compare_by_value_and_refuse_assignment(record, values,
                                                         field):
    first, second = record(*values), record(*values)
    assert first is not second and first == second
    for attribute in (field, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(first, attribute, values[0])
    assert first == second
