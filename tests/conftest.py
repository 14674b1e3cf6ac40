"""Shared fixtures.

`verdicts` runs every check of `fueterlab verify --suite all` once per
test session and keeps each CheckResult, whose `seconds` is the wall time
of the check that produced it, so the acceptance tests and the
golden-output test read the same run instead of recomputing it.
`checks_run` records which checks of that table run during one test.
"""

import pytest

from fueterlab import verify


@pytest.fixture(scope="session")
def verdicts() -> dict:
    """Check id -> CheckResult, in the order `verify --suite all` prints them."""
    return {res.id: res for results in verify.iter_suite("all") for res in results}


@pytest.fixture
def checks_run(monkeypatch) -> list:
    """The check functions of the table that run while the test does, in run order."""
    ran = []
    for suite, entries in verify.CHECKS.items():
        wrapped = [(lambda ctx, fn=fn: ran.append(fn) or fn(ctx), tied) for fn, tied in entries]
        monkeypatch.setitem(verify.CHECKS, suite, wrapped)
    return ran
