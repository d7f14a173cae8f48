import pytest
from hypothesis import settings

from qseidel import grassmann, neighborhoods, quantum

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test without the product and frame checks that the
    one-entry memos kept from an earlier test, or the pair that the
    per-pair store held, so no build count depends on the test order."""
    quantum._quantum_terms.cache_clear()
    neighborhoods._frame_checks.cache_clear()
    grassmann.GrassmannianMemo.cache_clear()
