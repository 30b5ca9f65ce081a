import random

import pytest

from coendo import _kernels
from coendo._kernels import reference


def maybe_fast():
    if _kernels.BACKEND != "compiled":
        pytest.skip("compiled kernels not built")
    from coendo._kernels import _fast

    return _fast


def test_backend_exposed():
    assert _kernels.BACKEND in ("compiled", "python")


def test_centralizer_masks_small():
    # single row (2) mod 4: vanishes at v = 0 and 2
    out = reference.centralizer_masks([(2,)], 4)
    assert out == [1, 0, 1, 0]
    # ordering: last coordinate fastest
    out = reference.centralizer_masks([(1, 0), (0, 1)], 3)
    assert len(out) == 9
    assert out[0] == 0b11  # v = (0,0)
    assert out[1] == 0b01  # v = (0,1): first row still vanishes
    assert out[3] == 0b10  # v = (1,0)


def test_centralizer_masks_backends_agree():
    fast = maybe_fast()
    rng = random.Random(0)
    for _ in range(12):
        k = rng.randint(1, 10)
        r = rng.randint(1, 3)
        m = rng.choice([2, 3, 4, 6, 8, 12])
        rows = [
            tuple(rng.randint(-20, 20) for _ in range(r)) for _ in range(k)
        ]
        assert fast.centralizer_masks(rows, m) == \
            reference.centralizer_masks(rows, m)


def test_centralizer_masks_row_limit():
    with pytest.raises(ValueError):
        reference.centralizer_masks([(1,)] * 65, 3)


def test_package_selected_backend_consistent():
    from coendo import KERNEL_BACKEND

    assert KERNEL_BACKEND == _kernels.BACKEND
