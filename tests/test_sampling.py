"""The sampler's draw stream is pinned: SHA-256 digests of the serialized
draws at seed 20250808, recorded before the eigenvalue checks moved to
integer numerators. A sampler that draws differently fails here."""
import hashlib
import json

import pytest

from duorth import ParamSampler
from duorth.serialize import operator_to_tree, rat_to_str, rc_to_tree

SEED = 20250808


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def theorem4(horizon, count):
    s = ParamSampler(SEED)
    draws = (s.sample_theorem4(horizon) for _ in range(count))
    return [[d["shape"], operator_to_tree(d["J"])] for d in draws]


def theorem5(horizon, count):
    s = ParamSampler(SEED)
    draws = (s.sample_theorem5(horizon) for _ in range(count))
    return [[d["shape"], rat_to_str(d["tau"]), operator_to_tree(d["J"])] for d in draws]


def recurrences(depth, count):
    s = ParamSampler(SEED)
    return [rc_to_tree(s.recurrence(depth)) for _ in range(count)]


@pytest.mark.parametrize("draw, args, expected", [
    pytest.param(theorem4, (40, 40), "35b1d73ae07047314636555ec97893933d396511ec01f49eef836f442879fa9a",
                 id="theorem4-40"),
    pytest.param(theorem4, (80, 30), "45b4caf92251b9b2999f2e3e5e3defe377c18e5037149b8468db1f462859ae4d",
                 id="theorem4-80"),
    pytest.param(theorem5, (40, 40), "7398ae20ca1fadfa36db19e5922253e7240fcdb58a0923969db9fffc3e4e852f",
                 id="theorem5-40"),
    pytest.param(recurrences, (42, 20), "974fa19cbbc086c43da74d60d9ef73640404e7c156023a2cb1f24743eaa61a35",
                 id="recurrence-42"),
])
def test_draw_stream_is_pinned(draw, args, expected):
    assert digest(draw(*args)) == expected
