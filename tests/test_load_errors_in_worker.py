"""The tests of test_load_errors.py again, with the links file parsed by
a forked worker, however small: the first error, its type and message,
and the worker's stop do not depend on where the links task runs."""

from __future__ import annotations

import pytest

from poprank import corpus
from test_load_errors import *  # noqa: F401,F403 -- collected again here


@pytest.fixture(autouse=True)
def links_in_a_worker(monkeypatch):
    monkeypatch.setattr(corpus, "_fork_links", lambda path: True)
