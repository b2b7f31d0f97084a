import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture
def no_all_to_all(monkeypatch):
    """Make every Ray Data all-to-all raise on the driver."""
    from util_compare import refuse_all_to_all
    refuse_all_to_all(monkeypatch)
