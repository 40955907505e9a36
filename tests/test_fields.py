"""The test-field battery's input checks."""

import pytest

from levylab.fields import _iter_fields
from levylab.spectral import Grid


@pytest.mark.parametrize("family, message", [
    ("bogus", "unknown field family"),
    ("perturbed-steady", "needs the steady density"),
], ids=["unknown-family", "perturbed-steady-without-steady"])
def test_refused_input(family, message):
    # the battery is a generator: it checks its input at the first field
    with pytest.raises(ValueError, match=message):
        next(_iter_fields(Grid(1, 10.0, 16), 0, family))
