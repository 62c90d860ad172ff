import pytest

from coverdepth import depth


@pytest.fixture(autouse=True)
def cold_reg_memo():
    """Start every test with an empty memo of reg I(G_n), every power n, so
    that what a test counts or records of the link scan or the grid does not
    depend on which tests ran before it."""
    depth._reg.cache_clear()
