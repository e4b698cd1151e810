"""Golden values, determinism, layout discipline, statistical smoke tests."""

import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpicard.randomness import (
    GOLDEN_ENTRIES,
    NodeId,
    StreamKey,
    absorb_vec,
    gaussian_vector,
    gaussians_vec,
    golden_lines,
    path_digest,
    raw_vec,
    raw_word,
    uniform01,
    uniforms_vec,
    verify_golden,
)

# Independent mirror of the packaged golden file.  These words were frozen
# when the generator recipe was; a change to either the file or the code
# must trip this table.
GOLDEN_MIRROR = [
    (0, (), 0, 0xBB90C7A6337C19D9),
    (0, (), 1, 0x2319836A87853061),
    (1, (), 0, 0x6C3F898A6FBDA301),
    (0, (0,), 0, 0xBA99A1D0C003416F),
    (0, (1,), 0, 0x064D0163F53707D6),
    (0, (-1,), 0, 0x91270EFAAD53E197),
    (42, (0, -1), 3, 0x7FC82ECB333993D1),
    (42, (0, 1), 3, 0xF9961DBB8507E9A2),
    (123456789, (2, 3, -4, 5), 7, 0x674F15D0F52AC439),
    (2**64 - 1, (1, -2, 3), 2, 0xCEDBC5A2A1112FF3),
]


def test_golden_file_matches_generator():
    path = importlib.resources.files("mlpicard") / "golden_rng.txt"
    assert verify_golden(str(path)) == []


def test_golden_hardcoded_mirror():
    for seed, node_path, counter, expected in GOLDEN_MIRROR:
        key = StreamKey(seed=seed, node=NodeId(node_path), counter=counter)
        assert raw_word(key) == expected, (seed, node_path, counter)


def test_golden_lines_cover_all_entries():
    lines = golden_lines()
    assert len(lines) == len(GOLDEN_ENTRIES) == len(GOLDEN_MIRROR)
    assert verify_golden(lines) == []


def test_same_key_same_outputs():
    key = StreamKey(seed=7, node=NodeId((3, -2, 1)), counter=5)
    again = StreamKey(seed=7, node=NodeId((3, -2, 1)), counter=5)
    assert raw_word(key) == raw_word(again)
    assert uniform01(key) == uniform01(again)
    assert np.array_equal(gaussian_vector(key, 4), gaussian_vector(again, 4))


def test_uniform_in_unit_interval():
    for counter in range(64):
        u = uniform01(StreamKey(seed=0, node=NodeId((1, 2)), counter=counter))
        assert 0.0 <= u < 1.0


def test_counter_slots_are_distinct_draws():
    node = NodeId((4,))
    values = [uniform01(StreamKey(0, node, c)) for c in range(16)]
    assert len(set(values)) == 16


def test_gaussian_consumes_one_slot_per_scalar():
    node = NodeId((9, -9))
    full = gaussian_vector(StreamKey(seed=3, node=node, counter=0), 6)
    head = gaussian_vector(StreamKey(seed=3, node=node, counter=0), 2)
    tail = gaussian_vector(StreamKey(seed=3, node=node, counter=2), 4)
    assert np.array_equal(full[:2], head)
    assert np.array_equal(full[2:], tail)


def test_gaussian_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        gaussian_vector(StreamKey(0, NodeId(()), 0), 0)


def test_child_appends_and_distinguishes_signs():
    assert NodeId(()).child(0, -1).path == (0, -1)
    assert NodeId((0, -1)).child(2, 3).path == (0, -1, 2, 3)
    base = NodeId((5,))
    assert base.child(1, 2) != base.child(-1, 2)
    assert base.child(0, 2) != base.child(0, -2)


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=8))
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(path):
    node = NodeId(tuple(path))
    assert NodeId.decode(node.encode()) == node


def test_path_digests_injective_on_small_paths():
    paths = [()]
    paths += [(a,) for a in range(-6, 7)]
    paths += [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    digests = {path_digest(0, p) for p in paths}
    assert len(digests) == len(paths)


def test_prefix_and_extension_key_distinct_streams():
    # a path and its extensions must not share raw words at low counters
    base = NodeId((2, -3))
    ext = base.child(1, 4)
    words_base = {raw_word(StreamKey(0, base, c)) for c in range(8)}
    words_ext = {raw_word(StreamKey(0, ext, c)) for c in range(8)}
    assert not words_base & words_ext


def _fresh_digests(n, seed=0):
    root = np.uint64(path_digest(seed, ()))
    return absorb_vec(root, 1, np.arange(n, dtype=np.int64))


def test_uniform_moments_over_fresh_keys():
    u = uniforms_vec(_fresh_digests(10**6), 0)
    assert abs(u.mean() - 0.5) < 0.002
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_uniform_moments_along_counter_stream():
    digest = np.uint64(path_digest(11, (3, 1)))
    u = uniforms_vec(digest, np.arange(10**6, dtype=np.uint64))
    assert abs(u.mean() - 0.5) < 0.002
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_gaussian_moments_and_quantile_coverage():
    z = gaussians_vec(_fresh_digests(10**6)[:, None], np.arange(1, dtype=np.uint64))
    z = z.ravel()
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01
    coverage = np.mean(np.abs(z) <= 1.96)
    assert abs(coverage - 0.95) < 0.002


def test_distinct_node_streams_uncorrelated():
    n = 10**5
    digests = _fresh_digests(n)
    left = uniforms_vec(absorb_vec(digests[:, None], 2, np.array([1]))[:, 0], 0)
    right = uniforms_vec(absorb_vec(digests[:, None], 2, np.array([2]))[:, 0], 0)
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 0.01


def test_prefix_vs_extension_uncorrelated():
    n = 10**5
    digests = _fresh_digests(n)
    parent = uniforms_vec(digests, 0)
    child_u = uniforms_vec(absorb_vec(digests[:, None], 2, np.array([5]))[:, 0], 0)
    assert abs(np.corrcoef(parent, child_u)[0, 1]) < 0.01


def test_scalar_and_vector_paths_agree():
    rng_paths = [(0,), (1, -2), (3, 4, -5), ()]
    for seed in (0, 9, 2**63):
        for p in rng_paths:
            digest = np.uint64(path_digest(seed, p))
            for counter in (0, 1, 7):
                key = StreamKey(seed, NodeId(p), counter)
                assert raw_word(key) == int(raw_vec(digest, np.uint64(counter)))
                assert uniform01(key) == float(uniforms_vec(digest, np.uint64(counter)))
            vec = gaussians_vec(digest, np.arange(4, dtype=np.uint64))
            assert np.array_equal(gaussian_vector(StreamKey(seed, NodeId(p), 0), 4), vec)


def test_brownian_point_coordinates_uncorrelated():
    n = 10**5
    z = gaussians_vec(_fresh_digests(n)[:, None], np.arange(3, dtype=np.uint64))
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.corrcoef(z[:, i], z[:, j])[0, 1]) < 0.01


def test_verify_golden_flags_tampering():
    lines = golden_lines()
    tampered = lines[:-1] + [lines[-1][:-1] + ("0" if lines[-1][-1] != "0" else "1")]
    assert verify_golden(tampered) != []
    assert verify_golden(["# only a comment"]) != []
