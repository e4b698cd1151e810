"""Golden values, determinism, layout discipline, statistical smoke tests."""

import importlib.resources

import numpy as np
import pytest
from scipy.special import ndtri

from mlpicard.randomness import (
    _BLOCK,
    absorb_vec,
    gaussian_vector,
    gaussians_vec,
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

# Independent mirror of gaussian_vector(seed, path, counter, 3) at every
# golden key, as
# float.hex.  The golden words pin mix64; these pin the float conversion
# and ndtri on top of it.
GAUSSIAN_MIRROR = [
    (0, (), 0, ("0x1.3dead6997c593p-1", "-0x1.17e9609006fd8p+0", "-0x1.0db78ce07f924p-2")),
    (0, (), 1, ("-0x1.17e9609006fd8p+0", "-0x1.0db78ce07f924p-2", "0x1.37b6b2fdf76b1p-1")),
    (1, (), 0, ("-0x1.8e95e548a2e65p-3", "0x1.080abc575bf08p-1", "0x1.e2ea7d3090f05p-2")),
    (0, (0,), 0, ("0x1.3811ae1769850p-1", "-0x1.a4b75b311271ep-2", "-0x1.6f805250e51a4p-3")),
    (0, (1,), 0, ("-0x1.f7758dcce9166p+0", "-0x1.920099676e013p-2", "0x1.e43fdec3a2a69p-3")),
    (0, (-1,), 0, ("0x1.59981b5245aa0p-3", "-0x1.ac0a39fc43dbep+0", "0x1.7e510eb090e01p-3")),
    (42, (0, -1), 3, ("-0x1.17d382e01245dp-9", "-0x1.52f5066496609p+1", "0x1.734ef20bba71ep-2")),
    (42, (0, 1), 3, ("0x1.f584a4c70f0d8p+0", "0x1.1fced0f89c1ccp+0", "-0x1.f9684386adb30p-1")),
    (123456789, (2, 3, -4, 5), 7,
     ("-0x1.f40e29b11c3b8p-3", "-0x1.4b69f89463114p-2", "-0x1.1e8582583a47dp-1")),
    (2**64 - 1, (1, -2, 3), 2,
     ("0x1.bdcc5d10bf93fp-1", "-0x1.6d7d88cd5bb52p+0", "0x1.a7c94d0ec5258p+0")),
]


def _golden_file_lines():
    # the data lines of the packaged golden file, the one list of its keys
    path = importlib.resources.files("mlpicard") / "golden_rng.txt"
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]


def test_golden_file_matches_generator():
    path = importlib.resources.files("mlpicard") / "golden_rng.txt"
    assert verify_golden(path.read_text(encoding="utf-8").splitlines()) == []


def test_golden_hardcoded_mirror():
    for seed, node_path, counter, expected in GOLDEN_MIRROR:
        assert raw_word(seed, node_path, counter) == expected, (
            seed, node_path, counter)


def test_gaussian_hardcoded_mirror():
    keys = [(int(seed), () if path == "-" else tuple(map(int, path.split(","))),
             int(counter))
            for seed, path, counter, _ in map(str.split, _golden_file_lines())]
    assert [entry[:3] for entry in GAUSSIAN_MIRROR] == keys
    for seed, node_path, counter, expected in GAUSSIAN_MIRROR:
        got = tuple(float(v).hex()
                    for v in gaussian_vector(seed, node_path, counter, 3))
        assert got == expected, (seed, node_path, counter)


def test_same_key_same_outputs():
    key = (7, (3, -2, 1), 5)
    again = (7, (3, -2, 1), 5)
    assert raw_word(*key) == raw_word(*again)
    assert uniform01(*key) == uniform01(*again)
    assert np.array_equal(gaussian_vector(*key, 4), gaussian_vector(*again, 4))


def test_uniform_in_unit_interval():
    for counter in range(64):
        u = uniform01(0, (1, 2), counter)
        assert 0.0 <= u < 1.0


def test_counter_slots_are_distinct_draws():
    values = [uniform01(0, (4,), c) for c in range(16)]
    assert len(set(values)) == 16


def test_gaussian_consumes_one_slot_per_scalar():
    node = (9, -9)
    full = gaussian_vector(3, node, 0, 6)
    head = gaussian_vector(3, node, 0, 2)
    tail = gaussian_vector(3, node, 2, 4)
    assert np.array_equal(full[:2], head)
    assert np.array_equal(full[2:], tail)


def test_gaussian_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        gaussian_vector(0, (), 0, 0)


def test_child_appends_and_distinguishes_signs():
    # a child's path extends its parent's by (k, m); the sign of either
    # element names a different node
    assert path_digest(0, (5, 1, 2)) != path_digest(0, (5, -1, 2))
    assert path_digest(0, (5, 0, 2)) != path_digest(0, (5, 0, -2))


def test_path_digests_injective_on_small_paths():
    paths = [()]
    paths += [(a,) for a in range(-6, 7)]
    paths += [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    digests = {path_digest(0, p) for p in paths}
    assert len(digests) == len(paths)


def test_prefix_and_extension_key_distinct_streams():
    # a path and its extensions must not share raw words at low counters
    base = (2, -3)
    ext = base + (1, 4)
    words_base = {raw_word(0, base, c) for c in range(8)}
    words_ext = {raw_word(0, ext, c) for c in range(8)}
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
                assert raw_word(seed, p, counter) == int(
                    raw_vec(digest, np.uint64(counter)))
                assert uniform01(seed, p, counter) == float(
                    uniforms_vec(digest, np.uint64(counter)))
            vec = gaussians_vec(digest, np.arange(4, dtype=np.uint64))
            assert np.array_equal(gaussian_vector(seed, p, 0, 4), vec)


def _unblocked_gaussians(digests, counters):
    # the gaussian recipe in one unblocked expression
    return ndtri(((raw_vec(digests, counters) >> np.uint64(11)) + 0.5) * 2.0**-53)


def _assert_bitwise_equal(got, want):
    assert got.dtype == np.float64
    assert got.shape == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_blocked_gaussians_match_unblocked_recipe():
    root = np.uint64(path_digest(17, (2, -5)))
    lanes = absorb_vec(root, 1, np.arange(4096, dtype=np.int64))
    # B*m*d = 3 * _BLOCK + 7, so block edges fall inside rows
    B, m, d = 1, 17, 5783
    assert B * m * d == 3 * _BLOCK + 7
    cases = [
        (root, np.uint64(5)),                                    # 0-d
        (lanes[:0, None], np.arange(3, dtype=np.uint64)),        # (0, 3)
        (root, np.arange(_BLOCK - 1, dtype=np.uint64)),
        (root, np.arange(_BLOCK, dtype=np.uint64)),
        (root, np.arange(_BLOCK + 1, dtype=np.uint64)),
        (lanes[:B * m].reshape(B, m, 1), np.arange(1, d + 1, dtype=np.uint64)),
        (lanes.reshape(64, 64).T[::3, :, None], np.arange(7, dtype=np.uint64)),
    ]
    # bulk: ten grids of 409 lanes x 2445 slots, 10**7 words in all
    for j in range(10):
        cases.append((lanes[j:j + 4090:10, None],
                      np.arange(j, j + 2445, dtype=np.uint64)))
    total = 0
    for digests, counters in cases:
        got = gaussians_vec(digests, counters)
        _assert_bitwise_equal(got, _unblocked_gaussians(digests, counters))
        total += got.size
    assert total >= 10**7


def test_blocked_gaussians_match_scalar_words():
    # a sample of a block-straddling call against raw_word and scalar ndtri
    seed, d = 4, 3 * _BLOCK + 7
    lanes = absorb_vec(np.uint64(path_digest(seed, ())), 1, np.arange(2))
    z = gaussians_vec(lanes[:, None], np.arange(d, dtype=np.uint64))
    edges = [e * _BLOCK + off for e in range(1, 6) for off in (-1, 0)]
    sample = np.random.default_rng(0).integers(0, z.size, 200)
    for flat in [0, z.size - 1, *edges, *sample.tolist()]:
        j, c = divmod(flat, d)
        w = raw_word(seed, (j,), c)
        want = float(ndtri(((w >> 11) + 0.5) * 2.0**-53))
        assert z[j, c].hex() == want.hex(), (j, c)


def test_brownian_point_coordinates_uncorrelated():
    n = 10**5
    z = gaussians_vec(_fresh_digests(n)[:, None], np.arange(3, dtype=np.uint64))
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.corrcoef(z[:, i], z[:, j])[0, 1]) < 0.01


def test_verify_golden_flags_tampering():
    lines = _golden_file_lines()
    tampered = lines[:-1] + [lines[-1][:-1] + ("0" if lines[-1][-1] != "0" else "1")]
    assert verify_golden(tampered) != []
    assert verify_golden(["# only a comment"]) != []
    for counter in ("-1", str(2**64), "x"):
        assert verify_golden([f"0 - {counter} {'0' * 16}"]) == [
            f"malformed golden line: '0 - {counter} {'0' * 16}'"]


def test_verify_golden_checks_the_blocked_kernel(monkeypatch):
    # the scalar recipe is untouched, so only raw_vec's words can mismatch
    from mlpicard import randomness

    mix = randomness._mix64_into

    def flipped(z, tmp):
        mix(z, tmp)
        z ^= np.uint64(1)

    monkeypatch.setattr(randomness, "_mix64_into", flipped)
    problems = verify_golden(_golden_file_lines())
    assert len(problems) == len(GOLDEN_MIRROR)
    assert all(p.endswith("from raw_vec") for p in problems)


def test_blocked_words_and_digests_match_scalar_recipe_and_fill_out():
    # absorb_vec, raw_vec and uniforms_vec mix and convert in _BLOCK-sized
    # blocks: across block edges they must give the scalar recipe's words
    # and uniforms, and every kernel that takes out=
    # must write the same bits into the caller's array and return it
    seed, n = 6, 3 * _BLOCK + 7
    root = np.uint64(path_digest(seed, ()))
    elems = np.arange(n, dtype=np.int64) - n // 2
    counters = np.arange(n, dtype=np.uint64)
    lanes = absorb_vec(root, 1, elems)
    words = raw_vec(root, counters)
    uniforms = uniforms_vec(root, counters)
    edges = [e * _BLOCK + off for e in range(1, 4) for off in (-1, 0)]
    sample = np.random.default_rng(1).integers(0, n, 100)
    for i in [0, n - 1, *edges, *sample.tolist()]:
        assert int(lanes[i]) == path_digest(seed, (int(elems[i]),)), i
        assert int(words[i]) == raw_word(seed, (), i), i
        assert float(uniforms[i]).hex() == uniform01(seed, (), i).hex(), i
    for kernel, args in ((absorb_vec, (lanes[:, None], 2, elems[:3])),
                         (uniforms_vec, (lanes[:, None], np.arange(2))),
                         (gaussians_vec, (lanes[:5, None], counters))):
        want = kernel(*args)
        out = np.empty_like(want)
        got = kernel(*args, out=out)
        assert got.shape == out.shape and np.shares_memory(got, out)
        assert got.tobytes() == want.tobytes(), kernel.__name__
    with pytest.raises(ValueError, match="C-contiguous"):
        uniforms_vec(root, counters[:4], out=np.empty(8)[::2])
