from fractions import Fraction as F

import pytest

# Five values per modulus on which the H5 closed-form identities are proved
# (tests/test_kummer.py, TestHumbert5::test_closed_form_proved_on_grid). No
# value is 0 or 1 and the three axes are disjoint, so every triple of the
# product grid is a valid moduli point.
H5_GRID_AXES = (
    tuple(F(n) for n in range(2, 7)),
    tuple(F(-n) for n in range(1, 6)),
    tuple(F(1, n) for n in range(2, 7)),
)


@pytest.fixture(scope="session")
def h5_grid_axes():
    return H5_GRID_AXES
