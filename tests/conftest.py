import os

import pytest

from hapdc.config import ModelConfig, load_config

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


@pytest.fixture()
def default_cfg():
    return ModelConfig()
