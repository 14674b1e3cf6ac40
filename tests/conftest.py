"""Shared fixtures.

`verdicts` runs every check of `fueterlab verify --suite all` once per
test session and keeps each CheckResult, whose `seconds` is the wall time
of the check that produced it, so the acceptance tests and the
golden-output test read the same run instead of recomputing it.
"""

import pytest

from fueterlab import verify


@pytest.fixture(scope="session")
def verdicts() -> dict:
    """Check id -> CheckResult, in the order `verify --suite all` prints them."""
    return {res.id: res for results in verify.iter_suite("all") for res in results}
