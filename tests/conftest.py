"""Shared fixtures.

load_table keeps parsed tables under $XDG_CACHE_HOME/igci/tables. Each test
gets its own empty cache directory, so no test writes under the user's home
and no entry left by an earlier test or run can stand in for a parse.
Processes a test starts inherit the variable.
"""

import pytest


@pytest.fixture(autouse=True)
def _own_table_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
