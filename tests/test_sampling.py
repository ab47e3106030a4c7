"""The sampler's draw stream is pinned: SHA-256 digests of the serialized
draws at seed 20250808, recorded before the eigenvalue checks moved to
integer numerators. The draws of the test helpers in conftest (random
operators, MPS prefixes and recurrences with alpha_1 or alpha_4 set) are
pinned to the digests they had as ParamSampler methods. A sampler that
draws differently fails here."""
import hashlib
import json
from functools import partial

import pytest

from conftest import random_mps, random_operator, random_recurrence
from duorth import ParamSampler
from duorth.serialize import mps_to_tree, operator_to_tree, rat_to_str, rc_to_tree

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


def set_recurrences(depth, count, **options):
    s = ParamSampler(SEED)
    return [rc_to_tree(random_recurrence(s, depth, **options)) for _ in range(count)]


def operators(max_order, count, **options):
    s = ParamSampler(SEED)
    return [operator_to_tree(random_operator(s, max_order, **options))
            for _ in range(count)]


def mps_prefixes(n_max, count):
    s = ParamSampler(SEED)
    return [mps_to_tree(random_mps(s, n_max)) for _ in range(count)]


@pytest.mark.parametrize("draw, args, expected", [
    pytest.param(theorem4, (40, 40), "35b1d73ae07047314636555ec97893933d396511ec01f49eef836f442879fa9a",
                 id="theorem4-40"),
    pytest.param(theorem4, (80, 30), "45b4caf92251b9b2999f2e3e5e3defe377c18e5037149b8468db1f462859ae4d",
                 id="theorem4-80"),
    pytest.param(theorem5, (40, 40), "7398ae20ca1fadfa36db19e5922253e7240fcdb58a0923969db9fffc3e4e852f",
                 id="theorem5-40"),
    pytest.param(recurrences, (42, 20), "974fa19cbbc086c43da74d60d9ef73640404e7c156023a2cb1f24743eaa61a35",
                 id="recurrence-42"),
    pytest.param(operators, (3, 20), "c0531d848cf44d3f12eaaa6e5a5124a75bf52d7cdef5ff9d2282db4ca1afae4d",
                 id="operator-3"),
    pytest.param(partial(operators, lowering=1), (3, 20),
                 "f8f9490fdf3aca107fed72c81542b18602f7826a7c2ef1620579a11e58de70ed",
                 id="operator-3-lowering-1"),
    pytest.param(mps_prefixes, (8, 10), "f1fc16161a9ea6ef37be95d1183d0aea6741a92955f03f736fa97e843984069f",
                 id="mps-8"),
    pytest.param(partial(set_recurrences, alpha1_zero=True), (8, 10),
                 "e34875ff8728381be687e4c17ae39cef304bc8a1fcb53de7c9ee29959eb48474",
                 id="recurrence-8-alpha1-zero"),
    pytest.param(partial(set_recurrences, tie_alpha4=True), (8, 10),
                 "185feffc25b9e8ad6189e56369a5feb2a7181193f465b3f55c58305a81cc5c7a",
                 id="recurrence-8-tie-alpha4"),
])
def test_draw_stream_is_pinned(draw, args, expected):
    assert digest(draw(*args)) == expected
