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

The vectorized kernels evaluate this recipe in place: each mixes the array
it returns with ``out=`` passes, walking it in blocks of ``_BLOCK`` elements
with one block of scratch, so no full-size temporary exists and each pass
after the first runs in cache; every value is the same as the unblocked
recipe, bit for bit.  Each kernel also takes ``out=``, a C-contiguous array
of the broadcast shape that it fills and returns, so a caller can reuse its
own buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# elements per block of the gaussian kernel: its scratch stays in L2
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


def _flat(words: np.ndarray) -> np.ndarray:
    # words as one flat view; the kernels mix in place, so a copy would
    # lose the result (their own outputs are C-contiguous; an out= must be)
    if not words.flags.c_contiguous:
        raise ValueError("kernel output must be C-contiguous")
    return words.reshape(-1)


def _mix64_blocks(words: np.ndarray) -> np.ndarray:
    # mix64 over words in place, _BLOCK elements at a time with one block
    # of scratch
    flat = _flat(words)
    tmp = np.empty(min(_BLOCK, flat.size), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        w = flat[lo:lo + _BLOCK]
        _mix64_into(w, tmp[:w.size])
    return words


def _zigzag_vec(v: np.ndarray) -> np.ndarray:
    # (v << 1) XOR (v >> 63, all ones for v < 0) is zigzag in two's
    # complement, and unlike 2v and -2v - 1 it cannot overflow
    v = np.asarray(v, dtype=np.int64)
    z = np.bitwise_xor(np.left_shift(v, 1), np.right_shift(v, 63))
    return z.astype(np.uint64)


def _slot_offsets(counters) -> np.ndarray:
    # (counter + 1) * phi, the per-slot offset added to each digest
    c = np.asarray(counters, dtype=np.uint64)
    return np.multiply(np.add(c, np.uint64(1)), _NP_PHI)


def absorb_words(depth: int, elems) -> np.ndarray:
    """The element side of absorbing ``elems`` at 1-based ``depth``:
    mix64(zigzag(v) + depth * phi) for each v, which no digest enters."""
    offset = np.uint64((depth * _PHI64) & _MASK64)
    return _mix64_blocks(
        np.asarray(np.add(_zigzag_vec(elems), offset, order="C")))


def absorb_vec(digests: np.ndarray, depth: int, elems,
               out: np.ndarray | None = None,
               words: np.ndarray | None = None) -> np.ndarray:
    """Extend digests (any shape) by one path element at 1-based ``depth``.

    ``elems`` broadcasts against ``digests``; both scalars and arrays of
    per-lane indices are accepted.  ``out`` (uint64) receives the result.
    ``words``, if given, is ``absorb_words(depth, elems)``, so a caller
    that absorbs the same elements under many digests computes it once.
    """
    if words is None:
        words = absorb_words(depth, elems)
    return _mix64_blocks(
        np.asarray(np.bitwise_xor(digests, words, order="C", out=out)))


def raw_vec(digests: np.ndarray, counters,
            out: np.ndarray | None = None) -> np.ndarray:
    """Raw 64-bit words at the given counter slots (broadcasting)."""
    return _mix64_blocks(
        np.asarray(np.add(digests, _slot_offsets(counters), order="C",
                          out=out)))


def uniforms_vec(digests: np.ndarray, counters,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in [0, 1) at the given counter slots; ``out`` is float64."""
    w = raw_vec(digests, counters,
                out=None if out is None else out.view(np.uint64))
    w >>= _NP_S11
    out = w.view(np.float64)
    np.multiply(w, _U53_SCALE, out=out)
    return out


def gaussians_vec(digests: np.ndarray, counters,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Standard gaussians at the given counter slots (broadcasting).

    The words are formed in the float64 output itself, then converted block
    by block, so one full-size array exists and each pass stays in cache.
    ``out`` (float64) receives the result.
    """
    words = np.asarray(np.add(
        digests, _slot_offsets(counters), order="C",
        out=None if out is None else out.view(np.uint64)))
    flat = _flat(words)
    tmp = np.empty(min(_BLOCK, flat.size), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        w = flat[lo:lo + _BLOCK]
        _mix64_into(w, tmp[:w.size])
        w >>= _NP_S11
        g = w.view(np.float64)
        np.add(w, 0.5, out=g)
        g *= _U53_SCALE
        ndtri(g, out=g)
    return words.view(np.float64)


@dataclass(frozen=True)
class NodeId:
    """Immutable address of one node in the computation tree."""

    path: tuple[int, ...] = ()

    def child(self, k: int, m: int) -> "NodeId":
        return NodeId(self.path + (k, m))

    def encode(self) -> str:
        """Canonical text form: comma-joined signed ints, '-' if empty."""
        return ",".join(str(v) for v in self.path) if self.path else "-"

    @staticmethod
    def decode(text: str) -> "NodeId":
        text = text.strip()
        if text == "-":
            return NodeId(())
        return NodeId(tuple(int(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return self.encode()


@dataclass(frozen=True)
class StreamKey:
    """One addressed slot: ``(seed, node, counter)`` names a single draw."""

    seed: int
    node: NodeId
    counter: int = 0

    def digest(self) -> int:
        return path_digest(self.seed, self.node.path)


def raw_word(key: StreamKey) -> int:
    return _raw(key.digest(), key.counter)


def uniform01(key: StreamKey) -> float:
    """Uniform draw in [0, 1) from the addressed slot."""
    return (raw_word(key) >> 11) * _U53_SCALE


def gaussian_vector(key: StreamKey, d: int) -> np.ndarray:
    """d iid standard gaussians, consuming slots counter..counter+d-1."""
    if d <= 0:
        raise ValueError(f"gaussian_vector needs d >= 1, got {d}")
    digest = np.uint64(key.digest())
    counters = np.arange(key.counter, key.counter + d, dtype=np.uint64)
    return gaussians_vec(digest, counters)


# golden values: the frozen recipe, pinned as text


def golden_lines() -> list[str]:
    """Render '(seed, path, counter) -> raw word' lines for pinning."""
    out = []
    for seed, path, counter in GOLDEN_ENTRIES:
        w = _raw(path_digest(seed, path), counter)
        out.append(f"{seed} {NodeId(path).encode()} {counter} {w:016x}")
    return out


GOLDEN_ENTRIES = [
    (0, (), 0),
    (0, (), 1),
    (1, (), 0),
    (0, (0,), 0),
    (0, (1,), 0),
    (0, (-1,), 0),
    (42, (0, -1), 3),
    (42, (0, 1), 3),
    (123456789, (2, 3, -4, 5), 7),
    (2**64 - 1, (1, -2, 3), 2),
]


def verify_golden(lines) -> list[str]:
    """Recompute every golden line; return mismatch descriptions (empty = ok)."""
    problems = []
    seen = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        seen += 1
        try:
            seed_s, path_s, counter_s, hex_s = line.split()
        except ValueError:
            problems.append(f"malformed golden line: {line!r}")
            continue
        seed = int(seed_s)
        node = NodeId.decode(path_s)
        counter = int(counter_s)
        got = _raw(path_digest(seed, node.path), counter)
        if f"{got:016x}" != hex_s:
            problems.append(
                f"golden mismatch at seed={seed} path={path_s} counter={counter}: "
                f"expected {hex_s}, got {got:016x}"
            )
    if seen == 0:
        problems.append("golden file contained no data lines")
    return problems
