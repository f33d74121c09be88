"""The package's errors survive a pickle round trip, as they must to
cross a pipe from a worker process."""

import pickle

import pytest

from lindef import errors
from lindef.errors import LindefError, ParseError

ERROR_CLASSES = [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, LindefError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_round_trip(cls):
    err = cls("bad", 4, 2) if issubclass(cls, ParseError) else cls("bad")
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is cls
    assert again.args == err.args
    if issubclass(cls, ParseError):
        assert (str(again), again.line, again.col) == ("line 4, column 2: bad", 4, 2)


def test_parse_error_keeps_a_prefixed_message():
    # lab.scan names the failing sample by rewriting args in place
    err = ParseError("bad", 4, 2)
    err.args = (f"sample 3: {err}",)
    again = pickle.loads(pickle.dumps(err))
    assert str(again) == "sample 3: line 4, column 2: bad"
    assert (again.line, again.col) == (4, 2)
