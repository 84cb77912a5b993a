import numpy as np
import pytest

from cadml.dataset import CLEVELAND_SCHEMA
from cadml.errors import (
    DataError,
    DisallowedValue,
    EmptyInput,
    LengthMismatch,
    NonNumericCell,
    NotConverged,
    OutOfRangeTarget,
    TooFewPerClass,
    TrainingError,
    UnknownFeature,
    WrongFieldCount,
)


TEMPLATED = [
    (WrongFieldCount, DataError, {"line_no": 3, "expected": 14, "got": 2},
     "line 3: expected 14 fields, got 2"),
    (NonNumericCell, DataError, {"line_no": 2, "column": 5, "value": "a'b"},
     "line 2, column 5: \"a'b\" is neither '?' nor a finite number"),
    (DisallowedValue, DataError, {"line_no": 4, "feature": CLEVELAND_SCHEMA[12], "value": 5.0},
     "line 4: Thal value 5.0 is not one of (3.0, 6.0, 7.0)"),
    (OutOfRangeTarget, DataError, {"line_no": 3, "value": 7.0},
     "line 3: target value 7.0 outside 0..4"),
    (UnknownFeature, DataError, {"name": "Bogus, Other"}, "unknown feature 'Bogus, Other'"),
    (LengthMismatch, DataError, {"expected": (297, 7), "got": (297, 6)},
     "expected length (297, 7), got (297, 6)"),
    (TooFewPerClass, TrainingError, {"label": np.int64(1), "count": 3, "k": 10},
     "class 1 has 3 rows, fewer than k=10 folds"),
    (NotConverged, TrainingError, {"C": 1e300, "sigma": 1e-300, "steps": 133500},
     "the SVM with C=1e+300, sigma=1e-300 did not converge in 133500 SMO steps"),
]


@pytest.mark.parametrize("cls,base,fields,message", TEMPLATED,
                         ids=[case[0].__name__ for case in TEMPLATED])
def test_templated_error(cls, base, fields, message):
    """Keyword fields become attributes and fill the class's message template;
    args, str and repr are those of an exception raised with that message."""
    exc = cls(**fields)
    assert isinstance(exc, base) and cls.template.format(**fields) == message
    assert str(exc) == message and exc.args == (message,)
    assert repr(exc) == f"{cls.__name__}({message!r})"
    assert {name: getattr(exc, name) for name in fields} == fields


def test_untemplated_error_keeps_its_message():
    """A class without a template takes its message as given, and its
    keyword fields as attributes."""
    exc = DataError("bad cell", line_no=3)
    assert exc.args == ("bad cell",) and str(exc) == "bad cell" and exc.line_no == 3
    assert EmptyInput().args == () and repr(EmptyInput()) == "EmptyInput()"
