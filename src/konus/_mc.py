"""Shared Monte Carlo plumbing: keyed substreams and batched trial counts.

Trial ``b`` of an experiment draws from ``np.random.default_rng((*prefix, b))``,
bit for bit, where the prefix is ``(seed,)`` or ``(seed, size)``.  Each
stream depends only on its key, so any partition of the trial range into
batches yields bit-identical results.  :func:`trial_streams` derives the
streams a batch at a time: it runs numpy's ``SeedSequence`` hash over the
whole batch as uint32 array steps, then seeds one reused ``PCG64`` per trial
through its public ``state``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Bytes of per-trial arrays (cross values, prices, noise) one batch of trials may hold.
_BATCH_BYTES = 1 << 19

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed by ``hashmix`` and ``mix``, read out by ``generate_state``.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MULT_A = 0x931E8875
# PCG64 seeding (numpy/random/src/pcg64): two steps of its 128-bit LCG.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Column of the ``calls + 1`` multipliers a run of ``hashmix`` calls steps through.

    Call k xors its word with entry k and multiplies it by entry k + 1.
    """
    column = [init]
    for _ in range(calls):
        column.append(column[-1] * mult & _MASK32)
    return np.array(column, dtype=np.uint32)[:, np.newaxis]


# The hash constants do not depend on the data.  These cover keys of at most
# four words; each further word takes four more calls, continuing the sequence.
_ENTROPY_CONSTANTS = _hash_constants(0x43B0D7E5, _MULT_A, _POOL * _POOL)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)  # 4 uint64 = 8 words


def _mixing_rounds() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Round s hashes pool word s once per other word d, in order of d.

    The other words do not read each other, so a round is one array step
    over all four rows; row s takes a dummy constant and keeps its value.
    """
    rounds = []
    for s in range(_POOL):
        others = [d for d in range(_POOL) if d != s]
        calls = np.empty(_POOL, dtype=int)
        calls[others] = _POOL + (_POOL - 1) * s + np.arange(_POOL - 1)
        calls[s] = calls[others[0]]
        rounds.append((s, _ENTROPY_CONSTANTS[calls], _ENTROPY_CONSTANTS[calls + 1]))
    return rounds


_ROUNDS = _mixing_rounds()


def _words(n: int) -> list[int]:
    """The uint32 words numpy makes of a nonnegative int key, least significant first."""
    if n < 0:
        raise ValueError("a stream key must be nonnegative")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    hashed = value ^ xor
    hashed *= mult
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix_into(pool: np.ndarray, hashed: np.ndarray) -> None:
    pool *= _MIX_MULT_L
    hashed *= _MIX_MULT_R
    pool -= hashed
    pool ^= pool >> _XSHIFT


def _seed_words(prefix: list[int], trials: range) -> np.ndarray:
    """``generate_state(4, uint64)`` of ``SeedSequence((*prefix, b))`` for every b, as rows ``[B, 4]``.

    ``prefix`` holds the prefix's words; every trial must have the same
    number of words.  uint32 array arithmetic wraps as numpy's C code does.
    """
    first = _words(trials.start)
    length = len(prefix) + len(first)
    entropy = np.zeros((max(length, _POOL), len(trials)), dtype=np.uint32)
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, np.newaxis]
    if len(first) == 1:
        entropy[len(prefix)] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    else:  # trial numbers of 2^32 and above: split in Python ints
        entropy[len(prefix):length] = [[b >> 32 * i & _MASK32 for b in trials] for i in range(len(first))]
    pool = _hashmix(entropy[:_POOL], _ENTROPY_CONSTANTS[:_POOL], _ENTROPY_CONSTANTS[1:_POOL + 1])
    for s, xor, mult in _ROUNDS:
        kept = pool[s].copy()
        _mix_into(pool, _hashmix(kept, xor, mult))
        pool[s] = kept
    if length > _POOL:  # each further word is hashed into every pool word
        tail = _hash_constants(int(_ENTROPY_CONSTANTS[-1, 0]), _MULT_A, _POOL * (length - _POOL))
        for i in range(length - _POOL):
            k = _POOL * i
            _mix_into(pool, _hashmix(entropy[_POOL + i], tail[k:k + _POOL], tail[k + 1:k + _POOL + 1]))
    state = _hashmix(np.concatenate((pool, pool)), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def trial_streams(prefix: tuple[int, ...], trials: range) -> Iterator[np.random.Generator]:
    """For each trial b of the consecutive ``trials``, a generator drawing as ``default_rng((*prefix, b))``.

    The draws and the full ``bit_generator.state`` are those of
    ``default_rng``, bit for bit.  The hash runs once over the whole range,
    so its arrays are O(len(trials)).  One generator is yielded again for
    every trial with that trial's state: finish with it before asking for
    the next.  Each call has its own generator, so streams in different
    threads stay independent.
    """
    prefix_words = [w for key in prefix for w in _words(key)]
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    state = bit_generator.state  # has_uint32 and uinteger are 0, as after seeding
    lo = trials.start
    while lo < trials.stop:
        hi = min(trials.stop, 1 << 32 * len(_words(lo)))  # the trials with as many words as lo
        for seed_hi, seed_lo, inc_hi, inc_lo in _seed_words(prefix_words, range(lo, hi)).tolist():
            inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
            seeded = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
            state["state"] = {"state": seeded, "inc": inc}
            bit_generator.state = state
            yield rng
        lo = hi


def batch_size(floats: int) -> int:
    """Trials per batch when each trial holds ``floats`` float64 values."""
    return max(1, _BATCH_BYTES // (8 * floats))


def count_trials(worker, trials: int, batch: int) -> tuple[int, int]:
    """Column sums of the ``(garp, harp)`` outcome rows ``worker(range(lo, hi))`` over every trial.

    The worker returns one row of two booleans per trial of its range.  The
    trials run in consecutive ranges of at most ``batch`` trials, one after
    another, so memory stays one batch at any trial count.
    """
    counts = np.zeros(2, dtype=np.int64)
    for lo in range(0, trials, batch):
        counts += worker(range(lo, min(lo + batch, trials))).sum(axis=0)
    return int(counts[0]), int(counts[1])
