import os

import pytest

from hapdc.config import ModelConfig, ServerSpec, WorkloadSpec, load_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIG = os.path.join(REPO_ROOT, "configs", "default.yaml")


def pytest_configure(config):
    """Let the child processes some tests start (``python -m hapdc.cli``)
    import the package from ``src/`` too: the ``pythonpath`` setting in
    pyproject.toml reaches only this process's ``sys.path``."""
    src = os.path.join(REPO_ROOT, "src")
    inherited = os.environ.get("PYTHONPATH", "")
    if src not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, inherited) if p)


@pytest.fixture(scope="session")
def shipped_cfg():
    """The study configuration shipped with the repository."""
    return load_config(SHIPPED_CONFIG)


@pytest.fixture(scope="session")
def faint_link_cfg():
    """The shipped study with a small server and a heavy uplink: 150-300 W
    a server, and 1000 task/s of 32 bits per instruction.  Its link is gated
    at 3.35 task/s, not 5361.78, so nearly every offered rate saturates it
    and drops with probability 1.  For the tests that assert that
    faint-link behaviour only."""
    return ModelConfig(
        server=ServerSpec(p_idle=150.0, p_peak=300.0),
        workload=WorkloadSpec(arrival_rate_total=1000.0,
                              bits_per_instruction=32.0))
