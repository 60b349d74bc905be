"""The two numeric inner loops, the edge-array helpers that feed them, and
the byte interner that feeds the loader.

* ``SpanInterner`` -- exact interning of byte spans, one block of a file
  at a time: ids in order of first appearance, found by a 64-bit hash
  and checked byte for byte against the stored value; ``resolve`` looks
  newline-ended values up by the same means, and ``first_appearances``
  finds where new ids first appear.
* ``row_starts`` and ``stable_order`` -- group ``(m, 2)`` int64 edge arrays
  by source into CSR arrays, in a stable order.
* ``power_iteration`` -- one power-iteration solve with restart and
  dangling-mass redistribution, from the prior or from a given start, to
  a tolerance, until the order of given pairs of entries is settled, or
  until enough are settled the wrong way round; a large one on two threads.
* ``random_walk`` -- the restart walk driven by a seeded generator, its
  restart segments advanced together with numpy in chunks sized from the
  restart probability, tallying visits into an int64 histogram. Links
  and restarts are one inverse-CDF search, the prior being one more row
  of the link CDF, narrowed by a guide table (``_guide``, ``_search``).
  A long walk on a PCG64 stream, with a second CPU, runs on two
  processes: a forked worker walks from the first restart past the
  midpoint, from the stream advanced to it, and the two histograms are
  added (``_split_step``).
* ``spare_cpu`` and ``forked`` -- whether a second CPU is free, and the
  one way the package runs a task in a worker process: forked, its
  result or error sent back through a pipe, and the worker killed and
  reaped when the caller's block ends. The corpus loader's links parse
  and the walk's second half use it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np

# steps whose uniforms are drawn at once; at small epsilon up to 16 times
# as many (see _walk_chunk), which bounds the walk's memory
WALK_CHUNK_STEPS = 65_536
EPS = 2.0**-52  # float64 machine epsilon
SPLIT_MIN_EDGES = 1 << 18  # edges from which a solve runs on two threads (power_iteration)
SPLIT_MIN_STEPS = 1 << 20  # steps from which a walk runs on two processes (random_walk)


def spare_cpu() -> bool:
    """Whether the process may use a second CPU (by affinity, else count)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


@contextmanager
def forked(task: Callable[[], object], name: str) -> Iterator[Callable[[], object]]:
    """Run ``task()`` in one worker process forked here, and yield a call
    that waits for its result: what the task returned, or the exception it
    raised, raised again here (OSError when the worker exits without a
    result). Leaving the block kills the worker and reaps it, so none
    outlives the block, whether it ends by a return, an error or an
    interrupt. The worker inherits this process's memory, so ``task`` may
    be a closure over large arrays; only its result goes through a pipe.
    """
    # imported here: at module level it would slow every command's start-up
    import multiprocessing

    # fork, not spawn: numpy and the package are already imported, and the task is
    # inherited, not pickled. No Pool: its shutdown waits forever on a queue lock that
    # a worker killed while sending its result holds
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    worker = context.Process(target=_worker, args=(task, writer), daemon=True)
    worker.start()
    writer.close()
    try:
        yield partial(_received, reader, name)
    finally:
        worker.kill()
        worker.join()
        reader.close()


def _worker(task: Callable[[], object], writer) -> None:
    """The body of a ``forked`` worker: sends the task's result, or the error it raised."""
    try:
        writer.send(task())
    except Exception as err:  # raised again by _received
        writer.send(err)


def _received(reader, name: str) -> object:
    """The result a ``forked`` worker sent; an error it raised is raised here."""
    try:
        result = reader.recv()
    except EOFError:
        raise OSError(f"the {name} worker exited without a result") from None
    if isinstance(result, Exception):
        raise result
    return result


def backend() -> str:
    """Name of the numeric backend."""
    return "numpy"


_ALL_BITS = np.uint64(2**64 - 1)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array; a bijection."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _span_hashes(words: np.ndarray, word_index: np.ndarray, word_starts: np.ndarray,
                 lengths: np.ndarray, seed: int) -> np.ndarray:
    """One uint64 hash per span from its masked words (flattened, span
    after span, ``word_index`` counting within a span and ``word_starts``
    giving each span's first word): the sum of the mixed words, each
    salted with its place, mixed with the span's length and the seed."""
    salt = _mix(np.array([seed], np.uint64))
    mixed = _mix(words + (word_index.astype(np.uint64) + np.uint64(1)) * _GOLDEN + salt)
    sums = np.concatenate((np.zeros(1, np.uint64), np.cumsum(mixed, dtype=np.uint64)))
    ends = word_starts + ((lengths + 7) >> 3)
    return _mix((sums[ends] - sums[word_starts]) ^ _mix(lengths.astype(np.uint64) ^ salt))


def room(array: np.ndarray, size: int, used: int) -> np.ndarray:
    """``array``, or when it is shorter than ``size``, a zeroed array of at
    least twice its length holding its first ``used`` items: growth by
    doubling, so that appending a block copies the whole array seldom."""
    if size <= len(array):
        return array
    grown = np.zeros(max(2 * len(array), size), array.dtype)
    grown[:used] = array[:used]
    return grown


def _padded_words(data: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at every byte offset of ``data``, a
    uint8 array with at least 7 bytes past the last offset that is read:
    an unaligned view, nothing is copied."""
    return np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))


def unique_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` for a
    1-d array: the sorted distinct keys, the index of each one's first
    occurrence and each key's index among them. One unstable argsort, a
    few times faster than the stable sort np.unique needs for the first
    occurrences: a key's first occurrence is the least index in its run."""
    order, ordered, new_run, first = _runs(keys)
    inverse = np.empty(len(keys), np.int64)
    inverse[order] = np.cumsum(new_run) - 1
    return ordered[new_run], first, inverse


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order, keys[order], where a run of equal keys starts in that
    order, the index of each run's first occurrence) for a 1-d array
    sorted by one unstable argsort."""
    order = np.argsort(keys)
    ordered = keys[order]
    new_run = np.ones(len(keys), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new_run)) if len(keys) else order
    return order, ordered, new_run, first


def first_appearances(ids: np.ndarray, known: int) -> np.ndarray:
    """Where ids of ``known`` and above first appear, in ``ids`` numbered by
    first appearance from ``known`` on: where their running maximum grows."""
    running = np.maximum.accumulate(np.maximum(ids, known - 1))
    return np.flatnonzero(np.diff(running, prepend=known - 1))


class SpanInterner:
    """Ids for distinct byte strings, in order of first appearance.

    ``intern`` takes one block of UTF-8 bytes and the ``[start, end)``
    byte spans of the values in it, and returns each span's id. A value
    is found by a 64-bit hash of its bytes, read 8 at a time through an
    unaligned word view and seeded with its length and ``seed``, in one
    sorted table of the hashes seen so far, into which each block inserts
    its new hashes at once; every span is then compared, by length and
    then word for word, with the bytes stored for its id. When two
    different values share a hash the comparison fails and the interner
    starts over under ``seed + 1``: it interns the values it held before
    the block, in id order, and then the block, so ids never depend on the
    hash and a collision costs a re-intern of the held values. Memory
    grows with the distinct values, not with the blocks.

    Values must not contain a newline byte: the stored values are kept
    newline-separated, and ``values`` decodes them with one split.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        # the sorted hashes of the values, and the id of each
        self._hashes, self._ids = np.empty(0, np.uint64), np.empty(0, np.int64)
        self._count = 0
        # per id, where its bytes start in _store, and their length; with
        # room to grow, as has the store of values, each followed by a newline
        self._offsets = np.empty(1 << 10, np.int64)
        self._lengths = np.empty(1 << 10, np.int64)
        self._store = np.zeros(1 << 16, np.uint8)
        self._size = 0

    def __len__(self) -> int:
        return self._count

    def intern(self, data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The int64 id of each span ``data[starts[i]:ends[i]]``; a value
        not seen before gets the next id, in the order of the spans."""
        held = self._size
        ids = self._intern(data, starts, ends)
        if ids is None:  # a hash collision: start over under the next seed
            store = self._store[:held].tobytes()
            self.__init__(self.seed + 1)
            self.intern(store, *line_spans(np.frombuffer(store, np.uint8)))
            ids = self.intern(data, starts, ends)
        return ids

    def _intern(self, data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
        """``intern``'s ids, or None when a span differs from the value
        stored under its hash."""
        buf = np.frombuffer(data + bytes(8), np.uint8)
        starts = np.asarray(starts, np.int64)
        lengths = np.asarray(ends, np.int64) - starts
        counts = (lengths + 7) >> 3  # words per span
        word_starts = np.cumsum(counts) - counts
        word_index = np.arange(int(counts.sum())) - np.repeat(word_starts, counts)
        place = 8 * word_index
        # the last word of a span keeps only the span's bytes (little-endian: the low ones)
        last = (word_starts + counts - 1)[counts > 0]
        mask = np.full(len(place), _ALL_BITS)
        mask[last] >>= (np.uint64(64) - (8 * (lengths[counts > 0] - place[last])).astype(np.uint64))
        words = _padded_words(buf)[np.repeat(starts, counts) + place] & mask
        hashes = _span_hashes(words, word_index, word_starts, lengths, self.seed)

        distinct, first, inverse = unique_first(hashes)
        at = np.searchsorted(self._hashes, distinct)
        hit = at < len(self._hashes)
        hit[hit] = self._hashes[at[hit]] == distinct[hit]
        distinct_ids = np.full(len(distinct), -1)
        distinct_ids[hit] = self._ids[at[hit]]
        new = np.flatnonzero(~hit)  # ascending, as distinct is sorted
        distinct_ids[new[np.argsort(first[new])]] = np.arange(len(self), len(self) + len(new))
        self._store_new(buf, starts, lengths, np.sort(first[new]))  # by first appearance
        self._hashes = np.insert(self._hashes, at[new], distinct[new])
        self._ids = np.insert(self._ids, at[new], distinct_ids[new])
        ids = distinct_ids[inverse]
        # lengths first: a span longer than its stored value would read past it
        if not np.array_equal(self._lengths[ids], lengths):
            return None
        stored = _padded_words(self._store)[np.repeat(self._offsets[ids], counts) + place] & mask
        return ids if np.array_equal(stored, words) else None

    def _store_new(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   spans: np.ndarray) -> None:
        """Append the values of ``spans`` (span indices in id order), each
        followed by a newline, to the store."""
        starts, lengths = starts[spans], lengths[spans]
        sizes = lengths + 1
        offsets = self._size + np.cumsum(sizes) - sizes
        end = self._size + int(sizes.sum())
        count = self._count + len(spans)
        self._store = room(self._store, end + 8, self._size)
        self._offsets = room(self._offsets, count, self._count)
        self._lengths = room(self._lengths, count, self._count)
        self._store[self._size:end] = join_spans(buf, starts, starts + lengths)
        self._offsets[self._count:count] = offsets
        self._lengths[self._count:count] = lengths
        self._size, self._count = end, count

    def resolve(self, data: bytes, known: int) -> np.ndarray:
        """The id of each newline-ended value of ``data``, or -1 for one not
        among the first ``known`` ids (a new value is interned all the same)."""
        ids = self.intern(data, *line_spans(np.frombuffer(data, np.uint8)))
        ids[ids >= known] = -1
        return ids

    def data(self) -> bytes:
        """The distinct values' bytes, each followed by a newline, in id order."""
        return self._store[:self._size].tobytes()

    def values(self) -> list[str]:
        """The distinct values decoded, in id order."""
        return self.data().decode("utf-8").split("\n")[:-1]

    def lines(self, ids: np.ndarray) -> list[str]:
        """The values of ``ids`` decoded, in that order, from one gather."""
        data = gather_spans(self._store, self._offsets[ids], self._lengths[ids] + 1)
        return data.tobytes().decode("utf-8").split("\n")[:-1]


def line_spans(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the newline-ended lines of a uint8 array; a line's
    end is the offset of its newline."""
    ends = np.flatnonzero(data == ord("\n"))
    return np.append(0, ends[:-1] + 1)[:len(ends)], ends


def lines_at(data: bytes, rows: np.ndarray) -> list[str]:
    """The newline-ended lines ``rows`` of ``data``, decoded."""
    starts, ends = line_spans(np.frombuffer(data, np.uint8))
    return [data[a:b].decode("utf-8") for a, b in zip(starts[rows].tolist(), ends[rows].tolist())]


def gather_spans(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The spans ``data[starts[i]:starts[i] + lengths[i]]`` of a uint8
    array, concatenated."""
    before = np.cumsum(lengths) - lengths
    # built in place: at most two index-length int64 arrays are alive at once
    index = np.repeat(starts - before, lengths)
    index += np.arange(len(index))
    return data[index]


def join_spans(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The spans ``data[starts[i]:ends[i]]`` of a uint8 array, each followed
    by a newline, as one uint8 array."""
    newline = np.full(len(starts), len(data))  # the offset of a newline appended to data
    return gather_spans(np.append(data, np.uint8(ord("\n"))),
                        np.column_stack((starts, newline)).ravel(),
                        np.column_stack((ends - starts, np.ones_like(newline))).ravel())


def row_starts(n: int, src: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` (int64, length n + 1) of edges with sources ``src``."""
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr


def stable_order(keys: np.ndarray, bound: int, limit: int = np.iinfo(np.int64).max) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of int64 keys in ``[0, bound)``.

    One unstable (SIMD) sort of the distinct keys ``keys * m + arange(m)``,
    which on unsorted keys is faster than timsort. Where those could
    exceed ``limit`` (int64's largest value), timsort itself.
    """
    m = len(keys)
    if int(bound) * m > limit:
        return np.argsort(keys, kind="stable")
    packed = keys * m
    packed += np.arange(m)
    return np.argsort(packed)


def power_iteration(indptr, targets, probs, dangling, alpha, v, tol, max_iter, r0=None,
                    pairs=None, reject=None):
    """Iterate r <- alpha * (pull(r) + dangling_mass * v) + (1 - alpha) * v
    from r0 (v when None) until the L1 change drops below tol.

    Returns (r, iterations, residual); r is unnormalized (its sum stays 1
    up to float drift). A start at the fixed point stops after one
    iteration.

    With SPLIT_MIN_EDGES edges and a second CPU, a helper thread that lives
    only inside the call computes half of the objects; each half's own copy
    of its in-edges, in CSR order, keeps every sum's order and so the bits.

    ``pairs``, two index arrays (high, low), adds a second stop: after an
    iteration with L1 change delta, stop once every |r[high] - r[low]|
    exceeds c * (delta + tol) + margin, c = alpha / (1 - alpha) up to
    rounding (see ``_settle_rule``). The map is a contraction in L1, so
    the iterate lies within c * delta of the fixed point, and every
    iterate a run to tol can end on, from any start, lies within c * tol
    of it; the margin covers rounding. Each pair then has the sign, and
    the strict order after normalizing, of any iterate a run without
    ``pairs`` ends on. The stop is off when such a run is not certain to
    end within max_iter iterations, so the iteration then ends where it
    does without ``pairs``.

    ``reject``, a count, adds a third stop under the same bound and the
    same guards: stop once at least ``reject`` pairs have r[high] - r[low]
    < -(c * (delta + tol) + margin). Each such pair is strictly reversed
    in this iterate and in any iterate a run to tol can end on, so a run
    to tol would get at least ``reject`` pairs wrong.
    """
    n = v.shape[0]
    r = (v if r0 is None else r0).astype(np.float64)
    new, change, rest = np.empty(n), np.empty(n), (1.0 - alpha) * v
    dangling_at = np.flatnonzero(dangling)
    rule = None if pairs is None else _settle_rule(indptr, targets, alpha, v, tol, max_iter)
    if rule is not None:
        (high, low), (c, margin) = pairs, rule
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    halves, helper = [(0, n, sources, targets, probs)], nullcontext()
    if len(targets) >= SPLIT_MIN_EDGES and spare_cpu():
        from concurrent.futures import ThreadPoolExecutor  # not at start-up
        cut, helper = n // 2, ThreadPoolExecutor(1)
        halves = [(lo, hi, sources[into], targets[into] - lo, probs[into])
                  for lo, hi, into in ((0, cut, targets < cut), (cut, n, targets >= cut))]
    del sources  # held by the one half, or copied into two

    def step(r, new, d_mass, lo, hi, src, tgt, p):
        # alpha * (pulled + d_mass * v) + (1 - alpha) * v, operation for operation
        out = np.multiply(v[lo:hi], d_mass, out=new[lo:hi])
        out += np.bincount(tgt, weights=r[src] * p, minlength=hi - lo)
        out *= alpha
        out += rest[lo:hi]
        np.abs(np.subtract(out, r[lo:hi], out=change[lo:hi]), out=change[lo:hi])

    it, delta = 0, np.inf
    with helper:
        for it in range(1, max_iter + 1):
            d_mass = float(r[dangling_at].sum())
            pending = [helper.submit(step, r, new, d_mass, *half) for half in halves[1:]]
            step(r, new, d_mass, *halves[0])
            for done in pending:
                done.result()
            delta = float(change.sum())
            r, new = new, r
            if delta < tol:
                break
            if rule is not None:
                gap = r[high] - r[low]
                bound = c * (delta + tol) + margin
                if np.all(np.abs(gap) > bound) or (
                        reject is not None and np.count_nonzero(gap < -bound) >= reject):
                    break
    return r, it, delta


def _settle_rule(indptr, targets, alpha, v, tol, max_iter):
    """The terms (c, margin) of ``power_iteration``'s pair stop, or None
    when the stop must stay off.

    One iteration is a contraction in L1 by lam: alpha times the larger of
    v's mass and a row's probability sum, both 1 up to rounding. On scores
    of mass about 1, rounding adds at most eta to an iteration's L1 error:
    EPS times the longest sum it forms (a target's in-links in
    ``bincount``, or one of numpy's pairwise sums). An iterate with L1
    change delta then lies within (lam * delta + eta) / (1 - lam) of the
    fixed point, and one with change below tol within (lam * tol + eta) /
    (1 - lam), so the two are at most c * (delta + tol) + rounding apart,
    with c = lam / (1 - lam) and rounding = 2 * eta / (1 - lam). The
    margin is twice that rounding, the second half for the rounding of
    delta and of the normalization that follows.

    After k iterations a run's change is below 2 * lam^(k - 1) + rounding.
    Only when that bound, with rounding counted twice, falls below tol at
    k = max_iter is a run certain to stop at tol, so that an earlier stop
    drops no warning; otherwise, and when lam >= 1, the stop is off.
    """
    row_len = int(np.diff(indptr).max(initial=0))
    lam = alpha * max(float(v.sum()), 1.0 + EPS * (row_len + 2))
    if not lam < 1.0:
        return None
    longest = int(np.bincount(targets, minlength=len(v)).max(initial=0)) + len(v).bit_length() + 32
    rounding = 2.0 * EPS * longest / (1.0 - lam)
    if not 2.0 * lam ** (max_iter - 1) + 2.0 * rounding < tol:
        return None
    return lam / (1.0 - lam), 2.0 * rounding


def _guide(indptr, cdf):
    """The guide table of the CSR rows ``indptr`` (int64, from 0) of the
    float64 ``cdf``, each row nondecreasing: (bounds, first, bits).

    A row of d > 0 entries gets G = 2**bits[row] buckets, bits =
    bit_length(d - 1), so G < 2d, and G + 1 bounds from
    ``bounds[first[row]]`` on: bound b is the row start plus the number of
    the row's first d - 1 entries that are <= b / G. Entries above 1.0,
    which come from rounding, are never counted. ``_search`` reads it.
    """
    d = np.diff(indptr)
    bits = np.frexp(np.maximum(d - 1, 0))[1].astype(np.int8)
    past = np.left_shift(1, bits, dtype=np.int64) + 1  # G + 1
    sizes = np.where(d > 0, past, 0)
    first = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # the bound each entry is first counted in: ceil(entry * G), exact; G +
    # 1, the next row's first bound, for entries above 1.0 (clipped to the
    # next float) and for the row's last entry
    bucket = np.clip(cdf, 0.0, np.nextafter(1.0, 2.0))
    np.ldexp(bucket, np.repeat(bits, d), out=bucket)
    np.ceil(bucket, out=bucket)
    bucket[indptr[1:][d > 0] - 1] = past[d > 0]
    # each array of one item per entry is freed once used, which keeps the
    # build's peak memory near that of the walk that follows
    keys = bucket.astype(np.int64)
    del bucket
    keys += np.repeat(first, d)
    bounds = np.bincount(keys, minlength=total + 1)[:total]
    del keys
    np.cumsum(bounds, out=bounds)
    return bounds.astype(np.int32 if len(cdf) < 2**31 else np.int64), first, bits


def _search(guide, cdf, rows, u):
    """Per row of ``rows`` and uniform of ``u`` (in [0, 1)), the index of
    the entry bisect-right of u finds on the row of ``cdf``, clamped to the
    row's last entry: the row start plus the number of the row's first d -
    1 entries that are <= u.

    u * G is exact, so u lies in bucket g = floor(u * G), [g / G, (g + 1) /
    G), and the answer between bounds g and g + 1 of the row's ``guide``;
    a branch-free binary descent over that range settles it.
    """
    bounds, first, bits = guide
    g = first[rows] + np.ldexp(u, bits[rows]).astype(np.int64)
    j, hi = bounds[g], bounds[g + 1]
    step = 1 << int((hi - j).max(initial=0)).bit_length() >> 1
    while step:
        cand = j + step
        j += step * ((cand <= hi) & (cdf[np.minimum(cand, hi) - 1] <= u))
        step >>= 1
    return j


def random_walk(indptr, targets, cdf, dangling, prior_cdf, epsilon, steps, burn_in, rng):
    """Walk ``steps`` transitions and return the int64 visit counts after burn_in.

    ``rng`` (a numpy ``Generator``) supplies one uniform for the start
    object, then a (restart, choice) pair per step, drawn in chunks of
    ``_walk_chunk(epsilon)`` pairs. A step restarts if its restart uniform is
    below epsilon or the current object dangles, and then picks the object
    by bisect-right of the choice uniform on the prior CDF; otherwise it
    follows the link found by bisect-right on the current row of the link
    CDF. Both picks are clamped to the last entry.

    Both picks are one search (``_search``): the prior CDF is row n of the
    link CDF, with the objects as its targets, and a dangling object's row
    is that row. A guide table (``_guide``), at most two bounds per entry
    and built once per call, narrows each search to a bucket of a row.

    A restart forced by epsilon does not depend on the past, so each one
    starts an independent segment of the chunk; the first segment goes on
    from the state the previous chunk ended in. All segments of a chunk
    advance together, one step per round of numpy operations, which gives
    the visits of the step-by-step walk exactly. The draws are sequential,
    so the chunk size changes neither the stream nor the histogram.

    A long walk runs on two processes (see ``_split_step`` for when).
    Step j0, the first at or after steps // 2 whose restart uniform is
    below epsilon, is such a restart: one worker, forked once the guide is
    built, walks from j0 to the end, from its copy of the generator
    advanced to draw 2 * j0 (a start it throws away, then step j0's
    pair), while this process walks the steps before j0. The two
    histograms are added, and ``rng`` is advanced past the worker's draws,
    to where the one-process walk leaves it.
    """
    n = len(prior_cdf)
    row_cdf = np.concatenate((cdf, prior_cdf))
    del cdf, prior_cdf  # frees them on CPython >= 3.11 when the caller passed them inline
    guide = _guide(np.append(indptr, indptr[-1] + n), row_cdf)
    bounds, first_bound, bits = guide
    row_target = np.concatenate((targets, np.arange(n)), dtype=bounds.dtype)
    first_bound[:n][dangling] = first_bound[n]
    bits[:n][dangling] = bits[n]

    def pick(rows, u):
        return row_target[_search(guide, row_cdf, rows, u)]

    j0 = _split_step(rng, epsilon, steps)
    if j0 is None:
        return _walk(pick, n, epsilon, steps, burn_in, rng)

    def tail():
        _advance(rng.bit_generator, 2 * j0)  # the worker's copy
        return _walk(pick, n, epsilon, steps - j0, max(0, burn_in - j0), rng)

    with forked(tail, "walk") as tail_counts:
        counts = _walk(pick, n, epsilon, j0, burn_in, rng)
        counts += tail_counts()
    _advance(rng.bit_generator, 2 * (steps - j0))
    return counts


def _walk(pick, n, epsilon, steps, burn_in, rng):
    """``random_walk``'s loop over chunks: draws the start object, walks
    ``steps`` steps, picking each next object with ``pick(rows, u)``, and
    returns the visit counts after ``burn_in``."""
    counts = np.zeros(n, np.int64)
    state = int(pick(n, np.array([rng.random()]))[0])
    chunk = _walk_chunk(epsilon)
    buffer = np.empty(min(chunk, steps), np.int64)
    for done in range(0, steps, chunk):
        k = min(chunk, steps - done)
        u = rng.random(2 * k)
        u_choice = u[1::2]
        visited = buffer[:k]
        starts = np.flatnonzero(u[0::2] < epsilon)
        visited[starts] = pick(n, u_choice[starts])
        # segment i walks left[i] steps from step first[i] on, starting at
        # object cur[i]: segment 0 from the last chunk's end, the others
        # from their restart
        first = np.append(0, starts + 1)
        left = np.append(starts, k) - first
        cur = np.append(state, visited[starts])
        order = np.argsort(-left)
        first, cur, left = first[order], cur[order], left[order]
        # round r advances the segments with more than r steps left, a prefix
        for r, live in enumerate(np.searchsorted(-left, -np.arange(left[0])).tolist()):
            pos = first[:live] + r
            cur = pick(cur[:live], u_choice[pos])
            visited[pos] = cur
        state = int(visited[-1])
        skip = max(0, burn_in - done)
        if skip < k:
            counts += np.bincount(visited[skip:], minlength=n)
        del u, u_choice  # free this chunk's uniforms before the next chunk's are drawn
    return counts


def _split_step(rng, epsilon: float, steps: int) -> int | None:
    """The step j0 at which ``random_walk`` hands the rest of the walk to a
    worker, or None to walk in one process.

    It splits only with SPLIT_MIN_STEPS steps or more (a shorter walk does
    not repay the fork), a second CPU, and a PCG64 or PCG64DXSM generator,
    whose ``advance`` skips a given number of draws (Philox's skips blocks
    of four). j0 is the first step at or after steps // 2 whose restart
    uniform (draw 1 + 2 * j0) is below epsilon, found from a copy of the
    generator a few thousand draws at a time; None when no later step has one.
    """
    bit = getattr(rng, "bit_generator", None)
    if (steps < SPLIT_MIN_STEPS or type(bit) not in (np.random.PCG64, np.random.PCG64DXSM)
            or not spare_cpu()):
        return None
    probe = type(bit)()
    probe.state = bit.state
    _advance(probe, 1 + 2 * (steps // 2))
    probe = np.random.Generator(probe)
    # 4,096 pairs (64 KiB) at a time: under glibc's initial mmap threshold,
    # which a larger draw, once freed, raises, so that the walk's chunks
    # that follow stay on the heap (+1 MB of peak RSS at 20k objects)
    for done in range(steps // 2, steps, 4096):
        k = min(4096, steps - done)
        restarts = np.flatnonzero(probe.random(2 * k)[0::2] < epsilon)
        if restarts.size:
            return done + int(restarts[0])
    return None


def _advance(bit_generator, draws: int) -> None:
    """Advance a PCG64 bit generator as if ``draws`` 64-bit draws had been
    made: ``advance`` also drops a buffered 32-bit half, which the
    float draws of the walk leave alone, so it is put back."""
    state = bit_generator.state
    bit_generator.advance(draws)
    bit_generator.state = {**state, "state": bit_generator.state["state"]}


def _walk_chunk(epsilon: float) -> int:
    """Steps per chunk of ``random_walk``: WALK_CHUNK_STEPS times the
    smallest power of two, at most 16, that gives the chunk
    WALK_CHUNK_STEPS / 8 restart segments (epsilon * steps) or more.

    A chunk takes one round of numpy calls per step of its longest
    segment, about ln(epsilon * chunk) / epsilon rounds, so a chunk of
    fixed size needs ever more rounds per step as epsilon shrinks. With
    8,192 segments at the default size, each round advances about a
    thousand segments or more.
    """
    chunk = WALK_CHUNK_STEPS
    while chunk < 16 * WALK_CHUNK_STEPS and epsilon * chunk < WALK_CHUNK_STEPS / 8:
        chunk *= 2
    return chunk
