"""Shared fixtures: one zeta provider per session so its value cache is
reused across every test module, and an empty quadrature node memo around
every test."""

import pytest

from jensenpoly import zeta_core
from jensenpoly.sequences import partition_provider, zeta_gamma_provider


@pytest.fixture(autouse=True)
def fresh_node_memo(monkeypatch):
    monkeypatch.setattr(zeta_core, "_node_memo", None)


@pytest.fixture(scope="session")
def zeta_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gamma-cache")


@pytest.fixture(scope="session")
def zeta_seq(zeta_cache_dir):
    return zeta_gamma_provider(zeta_cache_dir)


@pytest.fixture(scope="session")
def partition_seq():
    return partition_provider()
