"""Every native test must leave no OS thread behind."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_os_threads():
    before = threading.active_count()
    yield
    leaked = threading.active_count() - before
    if leaked > 0:
        pytest.fail(f"{leaked} OS thread(s) outlived the test")
