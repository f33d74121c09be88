"""The reference helpers' own checks raise explicitly, so they still
check under python -O, where a bare assert outside a test module is
dropped."""

import pytest

from lindef.fields import Field
from lindef.linalg import QuotientCoords
from lindef.presentation import algebra_from_text

import references
from references import inverse, quotient_reference


def test_singular_matrix_raises():
    field = Field(101)
    with pytest.raises(AssertionError, match="singular"):
        inverse(field, field.asarray([[1, 2], [2, 4]]))


def test_wrong_lift_raises(monkeypatch):
    algebra = algebra_from_text("vars x y\nideal x^2, x*y, y^3")

    class SkewedLift:
        """Right projection, representatives off by one entry."""

        def __init__(self, *args):
            coords = QuotientCoords(*args)
            self.dim, self.coords = coords.dim, coords.coords
            self.reps = coords.reps.copy()
            self.reps[0, 0] = (self.reps[0, 0] + 1) % algebra.field.p

    quotient_reference(algebra, 2)
    monkeypatch.setattr(references, "QuotientCoords", SkewedLift)
    with pytest.raises(AssertionError, match="identity"):
        quotient_reference(algebra, 2)
