"""Exact replay of recorded decisions: the pairs an active run queries and the
policy a passive run extracts.

``pinned_choices.json`` holds, for each case, the config of one seeded run
and the choices it made: the ``x, a, a_prime`` columns of active runs and the
final ``summary["policy"]`` of a passive enumerate run. A change to how the
uncertainty scan or the policy enumeration rounds its quadratic forms that
flips an argmax shows up here as a mismatch.
"""

import json
from pathlib import Path

import pytest

from duelbandits.config import parse_config
from duelbandits.runner import run_single

CASES = json.loads((Path(__file__).parent / "pinned_choices.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_choices_match_recording(case):
    cfg = parse_config(case["config"])
    rec = run_single(cfg, cfg.seeds[0])
    if "policy" in case:
        assert rec.summary["policy"] == case["policy"]
    else:
        assert rec.x.tolist() == case["x"]
        assert rec.a.tolist() == case["a"]
        assert rec.a_prime.tolist() == case["a_prime"]
