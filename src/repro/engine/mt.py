"""Batched Mersenne Twister, bit-compatible with :mod:`random`.

The vector engine advances every router's port-allocation RNG in lock
step with the scalar routers: each router owns a ``random.Random``
seeded from ``f"{seed}:{node}"``, and the determinism suite compares
runs byte-for-byte, so the batched generator must reproduce CPython's
draw sequence *exactly* — including the rejection sampling inside
``Random._randbelow`` and the variable number of words a single
``shuffle``/``choice`` consumes.

:class:`BatchedMT19937` therefore is not a statistical RNG of its own:
it holds the (N, 624) word state extracted from real ``random.Random``
instances via ``getstate()`` and replays the reference algorithm —
tempering, the three-chunk twist, ``getrandbits(k) = genrand() >> (32 -
k)`` and the ``while r >= n`` rejection loop — as masked numpy passes
over only the routers drawing that round.  ``getstate`` round-trips the
rows back into ``random.Random`` so a router can leave the batch (the
scalar punt path) and return without perturbing its stream.

Hot-path design: every row keeps *two* blocks of pre-tempered output
words (the current block and the already-twisted next block) in one
queue ``tq[row, 0:1248]``, so a draw is a pure gather — crossing the
624-word block boundary just keeps reading, exactly like the scalar
generator twisting and continuing.  :meth:`maintain`, called once per
simulator cycle, batch-rolls every row that crossed the boundary
(commit next block, twist a fresh one) so the per-draw path never
twists at all.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

import numpy as np

_N = 624
_M = 397
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_T_B = np.uint32(0x9D2C5680)
_T_C = np.uint32(0xEFC60000)

#: ``n.bit_length()`` for the small bounds ``_randbelow`` sees on the
#: deflection paths (port and candidate counts; never more than the
#: port count of a mesh router).  Precomputed so the vectorized path
#: never runs float ``log2`` near a power-of-two boundary.
_BIT_LENGTH = np.array([0] + [int(n).bit_length() for n in range(1, 64)],
                       dtype=np.uint8)

#: Lookahead width of :meth:`BatchedMT19937.randbelow` — how many
#: upcoming words are gathered per row per rejection round.  Eight
#: words make a second round vanishingly rare even for ``n = 1``
#: (acceptance 1/2 per word, so a miss is one in 2**8).
_W = 8
_AR_W = np.arange(_W, dtype=np.int64)

#: Tempered words queued per row: the current block plus the next.
_TQ = 2 * _N


def _twist(mt: np.ndarray) -> None:
    """In-place MT19937 state regeneration for a (k, 624) block.

    The reference loop has a lag-227 read-after-write dependency, so the
    update runs in ordered chunks whose inputs are final by the time
    they are read (the same decomposition every vectorized MT uses).
    """
    y = (mt[:, 0:227] & _UPPER) | (mt[:, 1:228] & _LOWER)
    mt[:, 0:227] = mt[:, _M:_N] ^ (y >> 1) ^ (_MATRIX_A * (y & 1))
    y = (mt[:, 227:623] & _UPPER) | (mt[:, 228:624] & _LOWER)
    mag = (y >> 1) ^ (_MATRIX_A * (y & 1))
    mt[:, 227:454] = mt[:, 0:227] ^ mag[:, 0:227]
    mt[:, 454:623] = mt[:, 227:396] ^ mag[:, 227:396]
    y = (mt[:, 623] & _UPPER) | (mt[:, 0] & _LOWER)
    mt[:, 623] = mt[:, 396] ^ (y >> 1) ^ (_MATRIX_A * (y & 1))


def _temper(mt: np.ndarray) -> np.ndarray:
    """MT19937 output tempering of a whole state block at once.

    Tempering is a pure per-word function, so pre-tempering the block
    when it is (re)generated costs nothing in exactness and makes the
    per-draw hot path a plain gather."""
    y = mt ^ (mt >> 11)
    y = y ^ ((y << 7) & _T_B)
    y = y ^ ((y << 15) & _T_C)
    return y ^ (y >> 18)


class BatchedMT19937:
    """The MT19937 streams of many ``random.Random`` objects, advanced
    together with per-row participation masks."""

    __slots__ = ("n_rows", "mt", "nxt", "_tqp", "_tqw", "mti")

    def __init__(self, rngs: Sequence[random.Random]) -> None:
        states = [rng.getstate() for rng in rngs]
        for state in states:
            if state[0] != 3:  # pragma: no cover - future-proofing
                raise RuntimeError(
                    f"unsupported random.Random state version {state[0]}"
                )
        self.n_rows = len(states)
        self.mt = np.array(
            [state[1][:_N] for state in states], dtype=np.uint32
        )
        #: The next block of every row, twisted ahead of time.
        self.nxt = self.mt.copy()
        _twist(self.nxt)
        #: Tempered-word queue: current block, next block, and ``_W``
        #: dead pad columns so the lookahead gather never goes out of
        #: bounds (draw positions are kept at most ``_TQ`` by
        #: :meth:`maintain` / the overflow guard, so the pad is never
        #: actually consumed).
        self._tqp = np.zeros((self.n_rows, _TQ + _W), dtype=np.uint32)
        self._tqp[:, :_N] = _temper(self.mt)
        self._tqp[:, _N:_TQ] = _temper(self.nxt)
        #: All length-``_W`` windows of the queue as a strided view:
        #: ``_tqw[row, p]`` is ``_tqp[row, p:p+_W]`` without a copy, so
        #: the randbelow lookahead is one 1D-indexed gather (much
        #: cheaper than a broadcast 2D fancy index).
        self._tqw = np.lib.stride_tricks.sliding_window_view(
            self._tqp, _W, axis=1
        )
        #: Draw position per row, 0.._TQ: positions past 624 read into
        #: the pre-twisted next block (bit-identical to the scalar
        #: generator twisting at the boundary and continuing).
        self.mti = np.array(
            [state[1][_N] for state in states], dtype=np.int64
        )

    # -- block rollover -----------------------------------------------------
    def _commit(self, rows: np.ndarray) -> None:
        """Rows past their block boundary adopt the pre-twisted next
        block and get a fresh one twisted ahead."""
        blk = self.nxt[rows]
        self.mt[rows] = blk
        self.mti[rows] -= _N
        self._tqp[rows, :_N] = self._tqp[rows, _N:_TQ]
        blk = blk.copy()
        _twist(blk)
        self.nxt[rows] = blk
        self._tqp[rows, _N:_TQ] = _temper(blk)

    def maintain(self) -> None:
        """Once-per-cycle batched rollover of every row that crossed
        its 624-word block boundary; keeps the per-draw path twist-free
        (a cycle never consumes anywhere near a full block per row).
        A row sitting exactly *on* the boundary is left alone, as
        CPython twists only on the next draw: its exported state stays
        equal to the scalar generator's, not merely stream-equivalent."""
        rows = np.nonzero(self.mti > _N)[0]
        if rows.size:
            self._commit(rows)

    # -- core draws ---------------------------------------------------------
    def next_words(self, idx: np.ndarray) -> np.ndarray:
        """One tempered 32-bit word per row in ``idx`` (rows advance;
        rows not listed are untouched; ``idx`` must not repeat a row)."""
        pos = self.mti[idx]
        if pos.max() >= _TQ:  # pragma: no cover - needs maintain() skipped
            self._commit(np.nonzero(self.mti > _N)[0])
            pos = self.mti[idx]
        y = self._tqp[idx, pos]
        self.mti[idx] = pos + 1
        return y

    def getrandbits(self, k: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``Random.getrandbits(k)`` per row: the top ``k`` bits of the
        next word (``k`` in 1..32)."""
        return self.next_words(idx) >> (np.uint32(32) - k.astype(np.uint32))

    def randbelow(self, n, idx: np.ndarray) -> np.ndarray:
        """``Random._randbelow(n)`` per row, CPython-exact.

        ``n`` is either a python int (the same bound for every row —
        the shuffle-round case) or a per-row int array; bounds are
        ``0 < n < 64``.  The rejection loop is replayed by gathering
        the next ``_W`` tempered words of every row at once and taking
        the first whose top ``k`` bits fall below ``n``; the words
        before it are exactly the rejected samples the scalar
        ``random.Random`` would also have burned, so each row's stream
        advances by the same count.
        """
        mti = self.mti
        if isinstance(n, (int, np.integer)):
            n = int(n)
            # Note for the tempted: there is no rejection-free bound.
            # CPython draws k = n.bit_length() bits, so even n = 2
            # rejects half its samples (k = 2); every n needs the
            # window scan.
            shift = np.uint32(32 - n.bit_length())
            per_row = False
        else:
            n = np.asarray(n, dtype=np.int64)
            shift = np.uint32(32) - _BIT_LENGTH[n].astype(np.uint32)
            per_row = True
        out: np.ndarray = None  # type: ignore[assignment]
        pend: np.ndarray = None  # type: ignore[assignment]
        rows = idx
        while True:
            pos = mti[rows]
            if pos.max() > _TQ - _W:
                # A rejection streak burned through the whole queued
                # block mid-cycle; roll the affected rows over now.
                self._commit(np.nonzero(mti > _N)[0])
                pos = mti[rows]
            words = self._tqw[rows, pos]
            if per_row:
                sh = (shift if pend is None else shift[pend])[:, None]
                nn = (n if pend is None else n[pend])[:, None]
            else:
                sh = shift
                nn = n
            ok = (words >> sh) < nn
            first = ok.argmax(axis=1)
            # Re-testing the selected word doubles as the found flag:
            # when a row has no acceptable word, argmax lands on column
            # 0 and that word necessarily fails the test again.
            wsel = words.ravel()[np.arange(rows.size) * _W + first]
            if per_row:
                r = (wsel >> sh[:, 0]).astype(np.int64)
                found = r < nn[:, 0]
            else:
                r = (wsel >> shift).astype(np.int64)
                found = r < n
            mti[rows] = pos + np.where(found, first + 1, _W)
            if pend is None:
                if found.all():
                    return r
                out = r
                pend = np.nonzero(~found)[0]
            else:
                out[pend] = r
                keep = ~found
                if not keep.any():
                    return out
                pend = pend[keep]
            rows = idx[pend]

    # -- single-row (scalar punt) draws ------------------------------------
    def randbelow_one(self, row: int, n: int) -> int:
        """Scalar ``_randbelow`` on one row (the per-router punt path)."""
        idx = np.array([row], dtype=np.int64)
        return int(self.randbelow(int(n), idx)[0])

    def shuffle_one(self, row: int, seq: list) -> None:
        """``random.shuffle`` on one row, in place."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow_one(row, i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def choice_one(self, row: int, seq: list):
        """``random.choice`` on one row."""
        return seq[self.randbelow_one(row, len(seq))]

    # -- interop with random.Random ----------------------------------------
    def getstate(self, row: int) -> Tuple:
        """A ``random.Random.setstate``-compatible tuple for one row."""
        pos = int(self.mti[row])
        if pos <= _N:
            words = tuple(int(w) for w in self.mt[row])
        else:
            words = tuple(int(w) for w in self.nxt[row])
            pos -= _N
        return (3, words + (pos,), None)

    def setstate(self, row: int, state: Tuple) -> None:
        self.mt[row] = np.array(state[1][:_N], dtype=np.uint32)
        self.mti[row] = state[1][_N]
        blk = self.mt[row : row + 1].copy()
        self._tqp[row, :_N] = _temper(blk)[0]
        _twist(blk)
        self.nxt[row] = blk[0]
        self._tqp[row, _N:_TQ] = _temper(blk)[0]

    def export_all(self, rngs: Sequence[random.Random]) -> None:
        """Write every row back into its scalar ``random.Random`` (the
        whole-network materialize path)."""
        for row, rng in enumerate(rngs):
            rng.setstate(self.getstate(row))
