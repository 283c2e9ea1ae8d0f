"""Deterministic synthetic workload traces: benign edits, compression, encryption.

Three scenario kinds, all pure functions of their spec (seed included):

* ``benign_edit`` — steady text-like writes across the target directories.
  Each file keeps a characteristic entropy drawn from 4.1-4.9 bits/byte with
  small per-write jitter, so nothing ever exceeds ~5 bits/byte.
* ``compressor`` — a single output file: one low-entropy header write, then
  a steady stream of 7.5-8.0 bits/byte writes. Exercises the false-positive
  surface of entropy-only detection (legitimate high-entropy output).
* ``ransomware`` — benign-looking writes until onset at 10% of the duration,
  then files are rewritten one after another with payload entropy ramping
  linearly from ramp start to ramp end over the remaining time, with a rename
  following every fourth rewrite. Early rewrites drag the directory-level
  mean entropy down before the ramp pulls it up, which is what gives the
  level series its convex onset.

A trace holds no record at or past its ``duration``: a scheduled write or
rename that lands there is dropped, after all draws.

Payload histograms are constructed directly (no raw bytes): a one-parameter
mixture between a point mass and the uniform byte distribution is solved for
the target entropy, then quantized to integer counts by largest remainder.
Realized entropy lands within a few thousandths of a bit of the target. The
histograms of a trace are synthesized in fixed blocks of rows, each by one
vectorized largest-remainder pass whose per-element operations are those of a
one-row pass, so the counts do not depend on the block size.

Each kind schedules its writes and draws their heavy bytes, all before any
histogram is synthesized; synthesis draws nothing. The golden trace hashes pin
the order of the RNG draws, per kind:

* benign_edit: ``uniform(base, size=file_count)``; then, per edit,
  ``uniform(±jitter)`` then ``integers(1024, 8193)``; then
  ``integers(32, 127, size=file_count)``.
* compressor: the header's ``uniform``; then, per body write, ``uniform``
  then ``integers(2048, 16385)``; then one ``integers(0, 256)`` per scheduled
  write.
* ransomware: the pre-onset edits as for benign_edit, without the base draw;
  then ``integers(32, 127, size=file_count)``; then ``permutation(file_count)``;
  then one ``integers(0, 256)`` per rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .entropy import ByteHistogram
from .errors import InvalidSpec, checked
from .traces import BENIGN, RANSOMWARE, EventRecord, Trace, TraceMeta

SCENARIO_KINDS = ("benign_edit", "compressor", "ransomware")

DEFAULT_DURATION = 100.0
DEFAULT_TARGET_DIRS = ("/home/user/documents", "/home/user/pictures")
DEFAULT_RAMP = (2.1, 7.8)

# Event cadences; powers of two keep every timestamp exactly representable.
BENIGN_EVENT_RATE = 4.0
REWRITE_RATE = 2.0
RENAME_EVERY = 4
ONSET_FRACTION = 0.1

BENIGN_SOURCE_ENTROPY = (4.1, 4.9)
BENIGN_JITTER = 0.05
PRE_ONSET_ENTROPY = 4.5
PRE_ONSET_JITTER = 0.01
COMPRESSOR_BODY_ENTROPY = (7.5, 8.0)
COMPRESSOR_HEADER_ENTROPY = (1.6, 2.4)
REWRITE_PAYLOAD_BYTES = 4096


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    seed: int
    duration: float = DEFAULT_DURATION
    file_count: int | None = None
    target_dirs: tuple[str, ...] = DEFAULT_TARGET_DIRS
    ramp: tuple[float, float] = DEFAULT_RAMP

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InvalidSpec(f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}")
        try:
            checked(self.seed, "seed", int)
            checked(self.file_count, "file_count", int, optional=True)
            for name, kind in (("duration", float), ("target_dirs", (str,)), ("ramp", (float,))):
                object.__setattr__(self, name, checked(getattr(self, name), name, kind))
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from exc
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidSpec(f"seed must fit in 64 bits, got {self.seed}")
        if not 0.0 < self.duration < float("inf"):
            raise InvalidSpec(f"duration must be finite and positive, got {self.duration}")
        if self.file_count is None:
            object.__setattr__(self, "file_count", max(2, int(round(self.duration / 5.0))))
        if self.file_count < 1:
            raise InvalidSpec(f"file_count must be positive, got {self.file_count}")
        if not self.target_dirs:
            raise InvalidSpec("at least one target directory is required")
        if not (len(self.ramp) == 2 and 0.0 <= self.ramp[0] <= self.ramp[1] <= 8.0):
            raise InvalidSpec(f"ramp must satisfy 0 <= start <= end <= 8, got {self.ramp}")


# Histograms are synthesized this many rows at a time, by one vectorized pass
# per block whose temporaries (about 100 KiB) do not grow with the trace.
_BLOCK_ROWS = 16

# Bisection steps that solve_mixture_weights takes per target.
_MIXTURE_ITERATIONS = 60


def solve_mixture_weights(targets: np.ndarray) -> np.ndarray:
    """Invert the mixture entropy curve by bisection, vectorized over targets.

    The curve is the entropy of ``(1-lam)`` point mass plus ``lam`` uniform over
    256 symbols. ``mid`` stays in [2**-_MIXTURE_ITERATIONS, 1], so both
    logarithms are finite.
    """
    targets = np.asarray(targets, dtype=np.float64)
    lo = np.zeros_like(targets)
    hi = np.ones_like(targets)
    for _ in range(_MIXTURE_ITERATIONS):
        mid = (lo + hi) / 2.0
        p0 = 1.0 - 255.0 * mid / 256.0
        u = mid / 256.0
        below = -(p0 * np.log2(p0) + 255.0 * (u * np.log2(u))) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def _synthesize(lams: np.ndarray, totals: np.ndarray, heavies: np.ndarray) -> Iterator[np.ndarray]:
    """Each row's 256 counts, quantized from its mixture by largest remainder.

    Row i is the mixture of weight ``lams[i]`` with its point mass on byte
    ``heavies[i]``, scaled to ``totals[i]`` bytes; the counts are the floors,
    plus one on each of the ``short`` buckets with the largest remainders,
    ties to the lowest byte value. Rows are synthesized ``_BLOCK_ROWS`` at a
    time in buffers reused from block to block, and each row is yielded as a
    view into its block's counts.
    """
    block = min(len(lams), _BLOCK_ROWS)
    scaled = np.empty((block, 256))
    floors = np.empty((block, 256))
    # Once a block's floors are in its counts, their buffer holds the ranks.
    rank = floors.view(np.int64)
    # Every block's counts are allocated before the first pass, so a trace's
    # histograms lie together, not between the passes' temporaries. Allocated
    # between them, they leave the heap fragmented once the trace is freed,
    # and a process that goes on to read traces can peak 8 MB higher in RSS.
    blocks = [np.empty((len(lams[start:start + _BLOCK_ROWS]), 256), dtype=np.int64)
              for start in range(0, len(lams), _BLOCK_ROWS)]
    byte_values = np.arange(256)
    rows = np.arange(block)
    row_starts = rows[:, None] * 256  # flat index of each row's byte 0
    for start, counts in zip(range(0, len(lams), _BLOCK_ROWS), blocks):
        n = len(counts)
        block_rows = slice(start, start + n)
        lam, total = lams[block_rows], totals[block_rows]
        s, f, r = scaled[:n], floors[:n], rank[:n]
        np.divide(lam[:, None], 256.0, out=s)
        s[rows[:n], heavies[block_rows]] = 1.0 - 255.0 * lam / 256.0
        s *= total.astype(np.float64)[:, None]
        np.floor(s, out=f)
        np.copyto(counts, f, casting="unsafe")
        short = total - counts.sum(axis=1)
        s -= f  # the remainders: the floors are integers, so this is scaled - counts
        np.negative(s, out=s)
        order = np.argsort(s, axis=1, kind="stable")
        order += row_starts[:n]
        # r[i, b] becomes byte b's place in row i's order of decreasing remainders.
        np.put(r, order, byte_values)
        counts += r < short[:, None]
        yield from counts


def _histogram(counts: np.ndarray, total: int) -> ByteHistogram:
    hist = ByteHistogram.__new__(ByteHistogram)
    hist.counts = counts
    hist.total = total
    return hist


def synthesize_histogram(target_entropy: float, total: int, heavy_byte: int) -> ByteHistogram:
    """Integer histogram of ``total`` bytes whose entropy is ~``target_entropy``,
    its point mass on byte value ``heavy_byte`` (an int in 0..255)."""
    if not 0.0 <= target_entropy <= 8.0:
        raise InvalidSpec(f"target entropy out of [0, 8]: {target_entropy}")
    if total <= 0:
        raise InvalidSpec(f"payload size must be positive, got {total}")
    if type(heavy_byte) is not int or not 0 <= heavy_byte <= 255:
        raise InvalidSpec(f"heavy byte must be an int in 0..255, got {heavy_byte!r}")
    counts, = _synthesize(solve_mixture_weights([target_entropy]), np.asarray([total], dtype=np.int64),
                          np.asarray([heavy_byte]))
    return _histogram(counts, total)


def _times(start: float, step: float, until: float) -> list[float]:
    """``start + i * step`` for i = 0, 1, ... while below ``until``."""
    times = []
    while (t := start + len(times) * step) < until:
        times.append(t)
    return times


def _edits(rng: np.random.Generator, base_entropies: np.ndarray, jitter: float, until: float):
    """Rows editing each file in turn near its base entropy, and their printable heavy bytes."""
    step = 1.0 / BENIGN_EVENT_RATE
    bases = base_entropies.tolist()
    rows = []
    for i, t in enumerate(_times(step / 4.0, step, until)):
        fidx = i % len(bases)
        target = min(max(bases[fidx] + rng.uniform(-jitter, jitter), 0.0), 8.0)
        rows.append((t, fidx, target, int(rng.integers(1024, 8193))))
    per_file = rng.integers(32, 127, size=len(bases))  # one per file, text-like
    return rows, per_file[[fidx for _, fidx, _, _ in rows]]


def _writes(rows, paths: list[str], heavies) -> list[EventRecord]:
    """A write record per (timestamp, file index, target entropy, size) row and heavy byte."""
    lams = solve_mixture_weights(np.asarray([target for _, _, target, _ in rows]))
    totals = np.asarray([size for _, _, _, size in rows], dtype=np.int64)
    counts = _synthesize(lams, totals, np.asarray(heavies, dtype=np.intp))
    return [EventRecord(t, paths[fidx], "write", _histogram(row, size), size)
            for (t, fidx, _, size), row in zip(rows, counts)]


def simulate_scenario(spec: ScenarioSpec) -> Trace:
    """Generate one trace; byte-identical output for identical specs."""
    rng = np.random.default_rng(spec.seed)
    dirs = spec.target_dirs
    paths = [f"{dirs[i % len(dirs)]}/doc_{i:04d}.txt" for i in range(spec.file_count)]
    attack = spec.kind == "ransomware"
    onset = ONSET_FRACTION * spec.duration if attack else None
    renames = []

    if spec.kind == "benign_edit":
        base = rng.uniform(*BENIGN_SOURCE_ENTROPY, size=spec.file_count)
        rows, heavies = _edits(rng, base, BENIGN_JITTER, spec.duration)
    elif spec.kind == "compressor":
        paths = [f"{dirs[0]}/archive_{spec.seed % 10000:04d}.pack"]
        step = 1.0 / BENIGN_EVENT_RATE
        rows = [(step / 4.0, 0, float(rng.uniform(*COMPRESSOR_HEADER_ENTROPY)), 512)]
        for t in _times(1.0 + step / 4.0, step, spec.duration):
            target = float(rng.uniform(*COMPRESSOR_BODY_ENTROPY))
            rows.append((t, 0, target, int(rng.integers(2048, 16385))))
        heavies = rng.integers(0, 256, size=len(rows))
    else:
        base = np.full(spec.file_count, PRE_ONSET_ENTROPY)
        rows, heavies = _edits(rng, base, PRE_ONSET_JITTER, onset)
        order = rng.permutation(spec.file_count)
        ramp_start, ramp_end = spec.ramp
        ramp_span = spec.duration - onset
        step = 1.0 / REWRITE_RATE
        times = _times(onset + step / 2.0, step, spec.duration)
        for j, t in enumerate(times):
            fidx = int(order[j % spec.file_count])
            target = ramp_start + (ramp_end - ramp_start) * (t - onset) / ramp_span
            rows.append((t, fidx, target, REWRITE_PAYLOAD_BYTES))
            if (j + 1) % RENAME_EVERY == 0:
                renames.append(EventRecord(t + step / 4.0, paths[fidx], "rename",
                                           ByteHistogram(), 0))
        heavies = np.concatenate([heavies, rng.integers(0, 256, size=len(times))])

    records = sorted((rec for rec in _writes(rows, paths, heavies) + renames
                      if rec.timestamp < spec.duration), key=lambda rec: rec.timestamp)
    meta = TraceMeta(
        scenario=spec.kind, seed=spec.seed, label=RANSOMWARE if attack else BENIGN,
        duration=spec.duration, onset_at=onset, ramp=spec.ramp if attack else None,
        file_count=len(paths), target_dirs=spec.target_dirs,
    )
    return Trace(meta, tuple(records))
