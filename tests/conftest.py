"""Shared fixtures.

`verdicts` runs every check of `fueterlab verify --suite all` once per
test session and keeps each result with the wall time of the check that
produced it, so the acceptance tests and the golden-output test read the
same run instead of recomputing it.
"""

import time
from dataclasses import dataclass

import pytest

from fueterlab import verify


@dataclass(frozen=True)
class Verdict:
    result: verify.CheckResult
    seconds: float


@pytest.fixture(scope="session")
def verdicts() -> dict:
    """Check id -> Verdict, in the order `verify --suite all` prints them."""
    out = {}
    start = time.monotonic()
    for results in verify.iter_suite("all"):
        now = time.monotonic()
        for res in results:
            out[res.id] = Verdict(res, now - start)
        start = now
    return out
