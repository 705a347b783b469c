"""Golden digests: `finito verify` must print the recorded CSV byte for byte.

The theory lab may be restructured for speed, but its reports (every lhs, rhs
and slack, printed as round-trip floats) must not move.  The digest file
stores the sha256 of each case's CSV, plus the platform-primitives digest of
the bit-exact test: on a platform whose primitives round differently the
comparison is skipped.

Re-record (only at a commit whose numbers are known good):

    PYTHONPATH=src python tests/test_verify_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from finito import cli

from conftest import arithmetic_digest, skip_unless_same_arithmetic

DIGESTS = Path(__file__).with_name("verify_digests.json")
CASES = {
    "all seed=0": ["--suite", "all", "--seed", "0"],
    "all seed=3": ["--suite", "all", "--seed", "3"],
    "lyapunov n=24 d=4 draws=30": ["--suite", "lyapunov", "--draws", "30",
                                   "--n", "24", "--d", "4"],
    # 3 n^2 d = 216000 branch floats per state: at theory.BRANCH_FLOATS =
    # 2^18 a stacked branch chunk holds about 1.2 states, so chunks both
    # split a state and span states
    "lyapunov n=120 d=5 draws=12": ["--suite", "lyapunov", "--draws", "12",
                                    "--n", "120", "--d", "5"],
    "inequalities n=16 d=3 draws=20 seed=1": [
        "--suite", "inequalities", "--draws", "20", "--n", "16", "--d", "3",
        "--seed", "1"],
    "rate n=40 seed=2": ["--suite", "rate", "--n", "40", "--seed", "2"],
    "lowerbound n=6 seed=4": ["--suite", "lowerbound", "--n", "6",
                              "--seed", "4"],
}


def verify_csv_digest(flags: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *flags])
    assert code == 0, f"verify {' '.join(flags)} exited {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def compute_digests() -> dict:
    return {"arithmetic": arithmetic_digest(),
            "cases": {name: verify_csv_digest(flags)
                      for name, flags in CASES.items()}}


@pytest.fixture(scope="module")
def golden():
    return skip_unless_same_arithmetic(json.loads(DIGESTS.read_text()))


def test_cases_match_recorded_set(golden):
    assert golden["cases"].keys() == CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_verify_csv_matches_golden(golden, name):
    assert verify_csv_digest(CASES[name]) == golden["cases"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_verify_digests.py --record")
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
