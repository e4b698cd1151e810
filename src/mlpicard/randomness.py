"""Deterministic node-addressed random streams.

Recursive Monte Carlo estimators consume randomness on a tree: every node of
the computation owns an independent stream, and a node is named by its path,
a finite sequence of signed integers.  Child nodes extend the path.  All
randomness is a pure function of ``(seed, path, counter)``, so any traversal
order, any partition of work across threads, and any re-run reproduce the
same draws bit for bit.

The generator is a keyed counter construction built from the splitmix64
finalizer.  The recipe is frozen; golden values in ``golden_rng.txt`` pin it.

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;
               z ^= z >> 27;  z *= 0x94D049BB133111EB;
               z ^= z >> 31              (all mod 2**64)

    zigzag(v)        = 2v for v >= 0, else -2v - 1
    digest(seed, ()) = mix64(mix64((seed + 0x243F6A8885A308D3) mod 2**64))
    digest(seed, p + (v,)) = mix64(digest(seed, p) XOR
                                   mix64(zigzag(v) + depth * 0x9E3779B97F4A7C15))
        where depth = len(p) + 1, the 1-based position of v
    raw(seed, path, counter) = mix64(digest + (counter + 1) * 0x9E3779B97F4A7C15)

Each path element is absorbed together with its position, so a path and any
of its extensions, permutations, or reindexings produce different digests;
for a fixed digest the counter sequence is exactly a splitmix64 stream.

Floating-point derivation from the raw 64-bit word ``w``:

    uniform01 = (w >> 11) * 2**-53                       in [0, 1)
    gaussian  = ndtri(((w >> 11) + 0.5) * 2**-53)        one slot per scalar

The gaussian argument lies strictly inside (0, 1), so ``ndtri`` is finite.
Gaussian vectors of length d consume exactly d consecutive counter slots.

The vectorized kernels evaluate this recipe in place, through one blocked
loop: each forms its words in the array it returns and walks it in blocks
of ``_BLOCK`` elements with one block of scratch, mixing each block with
``out=`` passes and, for uniforms and gaussians, converting it while it is
still in cache.  So no full-size temporary exists, and every value is the
same as the unblocked recipe, bit for bit.  ``absorb_vec``,
``uniforms_vec`` and ``gaussians_vec`` also take ``out=``, a C-contiguous
array of the broadcast shape that they fill and return, so the estimator
can reuse its own buffers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_PAD = 0x243F6A8885A308D3

_U53_SCALE = 2.0**-53

# numpy copies of the constants.  uint64 ufuncs wrap mod 2**64 silently;
# only operators on numpy scalars warn, so the kernels apply operators to
# arrays alone and call ufuncs by name where an operand may be a scalar
_NP_PHI = np.uint64(_PHI64)
_NP_M1 = np.uint64(_MIX1)
_NP_M2 = np.uint64(_MIX2)
_NP_S11, _NP_S27, _NP_S30, _NP_S31 = (np.uint64(k) for k in (11, 27, 30, 31))

# elements per block of the kernels: a block and its scratch stay in L2
_BLOCK = 1 << 15


def mix64(z: int) -> int:
    """splitmix64 finalizer, a bijection on 64-bit words."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def zigzag(v: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2,... -> 0,1,2,3,4,..."""
    return 2 * v if v >= 0 else -2 * v - 1


def _seed_digest(seed: int) -> int:
    return mix64(mix64((seed + _SEED_PAD) & _MASK64))


def _absorb(digest: int, depth: int, v: int) -> int:
    return mix64(digest ^ mix64((zigzag(v) + depth * _PHI64) & _MASK64))


def _raw(digest: int, counter: int) -> int:
    return mix64((digest + (counter + 1) * _PHI64) & _MASK64)


def path_digest(seed: int, path: tuple[int, ...]) -> int:
    d = _seed_digest(seed)
    for i, v in enumerate(path):
        d = _absorb(d, i + 1, v)
    return d


# vectorized kernels: same recipe over uint64 arrays, evaluated in place


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    # mix64 applied to z in place; tmp is caller-owned scratch of z's shape
    np.right_shift(z, _NP_S30, out=tmp)
    z ^= tmp
    z *= _NP_M1
    np.right_shift(z, _NP_S27, out=tmp)
    z ^= tmp
    z *= _NP_M2
    np.right_shift(z, _NP_S31, out=tmp)
    z ^= tmp


def _mix64_blocks(words: np.ndarray, step=None) -> np.ndarray:
    # mix64 over words in place, _BLOCK elements at a time with one block
    # of scratch; step, if given, converts each mixed block in place while
    # it is still in cache.  The kernels mix in place, so a copy would lose
    # the result (their own outputs are C-contiguous; an out= must be)
    if not words.flags.c_contiguous:
        raise ValueError("kernel output must be C-contiguous")
    flat = words.reshape(-1)
    tmp = np.empty(min(_BLOCK, flat.size), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        w = flat[lo:lo + _BLOCK]
        _mix64_into(w, tmp[:w.size])
        if step is not None:
            step(w)
    return words


def _to_uniforms(w: np.ndarray) -> None:
    # (w >> 11) * 2**-53, written over w's own bytes
    w >>= _NP_S11
    np.multiply(w, _U53_SCALE, out=w.view(np.float64))


def _to_gaussians(w: np.ndarray) -> None:
    # ndtri(((w >> 11) + 0.5) * 2**-53), written over w's own bytes
    w >>= _NP_S11
    g = w.view(np.float64)
    np.add(w, 0.5, out=g)
    g *= _U53_SCALE
    ndtri(g, out=g)


def _zigzag_vec(v: np.ndarray) -> np.ndarray:
    # (v << 1) XOR (v >> 63, all ones for v < 0) is zigzag in two's
    # complement, and unlike 2v and -2v - 1 it cannot overflow
    v = np.asarray(v, dtype=np.int64)
    z = np.bitwise_xor(np.left_shift(v, 1), np.right_shift(v, 63))
    return z.astype(np.uint64)


def absorb_vec(digests: np.ndarray, depth: int, elems,
               out: np.ndarray | None = None) -> np.ndarray:
    """Extend digests (any shape) by one path element at 1-based ``depth``.

    ``elems`` broadcasts against ``digests``; both scalars and arrays of
    per-lane indices are accepted.  ``out`` (uint64) receives the result.
    """
    offset = np.uint64((depth * _PHI64) & _MASK64)
    words = _mix64_blocks(
        np.asarray(np.add(_zigzag_vec(elems), offset, order="C")))
    return _mix64_blocks(
        np.asarray(np.bitwise_xor(digests, words, order="C", out=out)))


def _slot_words(digests, counters, out, step=None) -> np.ndarray:
    # the words at the given counter slots, formed in out (uint64) as
    # digest + (counter + 1) * phi, mixed and converted by step in place
    c = np.asarray(counters, dtype=np.uint64)
    offsets = np.multiply(np.add(c, np.uint64(1)), _NP_PHI)
    return _mix64_blocks(
        np.asarray(np.add(digests, offsets, order="C", out=out)), step)


def raw_vec(digests: np.ndarray, counters) -> np.ndarray:
    """Raw 64-bit words at the given counter slots (broadcasting)."""
    return _slot_words(digests, counters, None)


def uniforms_vec(digests: np.ndarray, counters,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in [0, 1) at the given counter slots; ``out`` is float64."""
    return _slot_words(digests, counters,
                       None if out is None else out.view(np.uint64),
                       _to_uniforms).view(np.float64)


def gaussians_vec(digests: np.ndarray, counters,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Standard gaussians at the given counter slots (broadcasting).

    The words are formed in the float64 output itself, so one full-size
    array exists.  ``out`` (float64) receives the result.
    """
    return _slot_words(digests, counters,
                       None if out is None else out.view(np.uint64),
                       _to_gaussians).view(np.float64)


def raw_word(seed: int, path: tuple[int, ...], counter: int) -> int:
    """The raw 64-bit word at slot ``counter`` of node ``path``."""
    return _raw(path_digest(seed, path), counter)


def uniform01(seed: int, path: tuple[int, ...], counter: int) -> float:
    """Uniform draw in [0, 1) from the addressed slot."""
    return (raw_word(seed, path, counter) >> 11) * _U53_SCALE


def gaussian_vector(seed: int, path: tuple[int, ...], counter: int,
                    d: int) -> np.ndarray:
    """d iid standard gaussians, consuming slots counter..counter+d-1."""
    if d <= 0:
        raise ValueError(f"gaussian_vector needs d >= 1, got {d}")
    digest = np.uint64(path_digest(seed, path))
    counters = np.arange(counter, counter + d, dtype=np.uint64)
    return gaussians_vec(digest, counters)


def verify_golden(lines) -> list[str]:
    """Recompute every golden line; return mismatch descriptions (empty = ok).

    Each word is recomputed twice: by the scalar recipe and by ``raw_vec``,
    whose blocked loop every kernel the estimator draws through shares.
    """
    problems = []
    seen = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        seen += 1
        try:
            seed_s, path_s, counter_s, hex_s = line.split()
            seed, counter = int(seed_s), int(counter_s)
            # the path column: comma-joined signed ints, '-' if empty
            path = (() if path_s == "-"
                    else tuple(int(tok) for tok in path_s.split(",")))
            digest = path_digest(seed, path)
            # counters are uint64 slots: one out of range is malformed
            kernel = int(raw_vec(np.uint64(digest), np.uint64(counter)))
        except (ValueError, OverflowError):
            problems.append(f"malformed golden line: {line!r}")
            continue
        for source, got in (("recipe", _raw(digest, counter)),
                            ("raw_vec", kernel)):
            if f"{got:016x}" != hex_s:
                problems.append(
                    f"golden mismatch at seed={seed} path={path_s} "
                    f"counter={counter}: expected {hex_s}, got {got:016x} "
                    f"from {source}")
    if seen == 0:
        problems.append("golden file contained no data lines")
    return problems
