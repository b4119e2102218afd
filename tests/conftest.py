import json

import numpy as np
import pytest

from slidereg.geometry import GridGeometry, ScalarImage


@pytest.fixture
def grid2d():
    return GridGeometry((8, 10), (1.0, 1.0), (0.0, 0.0))


@pytest.fixture
def grid2d_aniso():
    return GridGeometry((8, 10), (0.5, 2.0), (-1.0, 3.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_image(grid2d, rng):
    return ScalarImage(grid2d, rng.uniform(0.0, 255.0, grid2d.dims))


@pytest.fixture
def write_raw16():
    """Writer of ``<stem>.raw`` (int16 values) and its ``<stem>.json`` sidecar;
    returns the raw path."""

    def write(stem, values, spacing):
        values = np.asarray(values)
        stem.with_suffix(".raw").write_bytes(values.astype("<i2").tobytes())
        stem.with_suffix(".json").write_text(json.dumps({"dims": list(values.shape), "spacing": list(spacing)}))
        return stem.with_suffix(".raw")

    return write
