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

Payload histograms are constructed directly (no raw bytes): a one-parameter
mixture between a point mass and the uniform byte distribution is solved for
the target entropy, then quantized to integer counts by largest remainder.
Realized entropy lands within a few thousandths of a bit of the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import ByteHistogram
from .errors import InvalidSpec, checked
from .traces import LABEL_BENIGN, LABEL_RANSOMWARE, EventRecord, Trace, TraceMeta

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


def _mixture_entropy(lam: np.ndarray) -> np.ndarray:
    """Entropy of (1-lam)*point-mass + lam*uniform over 256 symbols."""
    lam = np.asarray(lam, dtype=np.float64)
    p0 = 1.0 - 255.0 * lam / 256.0
    u = lam / 256.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p0 * np.log2(p0) + 255.0 * np.where(u > 0, u * np.log2(u), 0.0))
    return np.where(lam <= 0, 0.0, h)


def solve_mixture_weights(targets: np.ndarray, iterations: int = 60) -> np.ndarray:
    """Invert the mixture entropy curve by bisection, vectorized over targets."""
    targets = np.asarray(targets, dtype=np.float64)
    lo = np.zeros_like(targets)
    hi = np.ones_like(targets)
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        below = _mixture_entropy(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def _largest_remainder_counts(probs: np.ndarray, total: int) -> np.ndarray:
    scaled = probs * total
    counts = np.floor(scaled).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainders = scaled - counts
        # Stable sort keeps ties deterministic (lowest byte value first).
        order = np.argsort(-remainders, kind="stable")
        counts[order[:short]] += 1
    return counts


def synthesize_histogram(target_entropy: float, total: int, heavy_byte: int,
                         mixture_weight: float | None = None) -> ByteHistogram:
    """Integer histogram of ``total`` bytes whose entropy is ~``target_entropy``."""
    if not 0.0 <= target_entropy <= 8.0:
        raise InvalidSpec(f"target entropy out of [0, 8]: {target_entropy}")
    if total <= 0:
        raise InvalidSpec(f"payload size must be positive, got {total}")
    lam = mixture_weight
    if lam is None:
        lam = float(solve_mixture_weights(np.asarray([target_entropy]))[0])
    probs = np.full(256, lam / 256.0)
    probs[heavy_byte] = 1.0 - 255.0 * lam / 256.0
    hist = ByteHistogram()
    hist.counts = _largest_remainder_counts(probs, total)
    hist.total = total
    return hist


def _write_record(t: float, path: str, target: float, size: int, heavy: int,
                  lam: float) -> EventRecord:
    return EventRecord(
        timestamp=t,
        source_path=path,
        op="write",
        histogram=synthesize_histogram(target, size, heavy, mixture_weight=lam),
        bytes=size,
    )


def _file_paths(spec: ScenarioSpec) -> list[str]:
    dirs = spec.target_dirs
    return [f"{dirs[i % len(dirs)]}/doc_{i:04d}.txt" for i in range(spec.file_count)]


def _benign_events(spec: ScenarioSpec, rng: np.random.Generator, until: float,
                   base_entropies: np.ndarray, jitter: float) -> list[tuple[float, int, float, int]]:
    """(timestamp, file index, target entropy, size) for the steady edit phase."""
    step = 1.0 / BENIGN_EVENT_RATE
    offset = step / 4.0
    events = []
    i = 0
    while True:
        t = offset + i * step
        if t >= until:
            break
        fidx = i % len(base_entropies)
        target = float(np.clip(base_entropies[fidx] + rng.uniform(-jitter, jitter), 0.0, 8.0))
        size = int(rng.integers(1024, 8193))
        events.append((t, fidx, target, size))
        i += 1
    return events


def simulate_scenario(spec: ScenarioSpec) -> Trace:
    """Generate one trace; byte-identical output for identical specs."""
    rng = np.random.default_rng(spec.seed)
    paths = _file_paths(spec)

    if spec.kind == "benign_edit":
        base = rng.uniform(*BENIGN_SOURCE_ENTROPY, size=spec.file_count)
        events = _benign_events(spec, rng, spec.duration, base, BENIGN_JITTER)
        records = _materialize_writes(events, paths, rng)
        meta = TraceMeta(
            scenario=spec.kind, seed=spec.seed, label=LABEL_BENIGN,
            duration=spec.duration, file_count=spec.file_count, target_dirs=spec.target_dirs,
        )
        return Trace(meta, tuple(records))

    if spec.kind == "compressor":
        out_path = f"{spec.target_dirs[0]}/archive_{spec.seed % 10000:04d}.pack"
        header_target = float(rng.uniform(*COMPRESSOR_HEADER_ENTROPY))
        specs = [(1.0 / BENIGN_EVENT_RATE / 4.0, header_target, 512)]
        step = 1.0 / BENIGN_EVENT_RATE
        i = 0
        while True:
            t = 1.0 + step / 4.0 + i * step
            if t >= spec.duration:
                break
            specs.append((t, float(rng.uniform(*COMPRESSOR_BODY_ENTROPY)), int(rng.integers(2048, 16385))))
            i += 1
        lams = solve_mixture_weights(np.asarray([s[1] for s in specs]))
        records = []
        for (t, target, size), lam in zip(specs, lams):
            heavy = int(rng.integers(0, 256))
            records.append(_write_record(t, out_path, target, size, heavy, float(lam)))
        meta = TraceMeta(
            scenario=spec.kind, seed=spec.seed, label=LABEL_BENIGN,
            duration=spec.duration, file_count=1, target_dirs=spec.target_dirs,
        )
        return Trace(meta, tuple(records))

    # ransomware
    onset = ONSET_FRACTION * spec.duration
    ramp_start, ramp_end = spec.ramp
    ramp_span = spec.duration - onset

    pre_base = np.full(spec.file_count, PRE_ONSET_ENTROPY)
    pre_events = _benign_events(spec, rng, onset, pre_base, PRE_ONSET_JITTER)
    pre_records = _materialize_writes(pre_events, paths, rng)

    order = rng.permutation(spec.file_count)
    step = 1.0 / REWRITE_RATE
    offset = step / 2.0
    rewrites = []
    j = 0
    while True:
        t = onset + offset + j * step
        if t >= spec.duration:
            break
        target = ramp_start + (ramp_end - ramp_start) * (t - onset) / ramp_span
        rewrites.append((t, int(order[j % spec.file_count]), target))
        j += 1

    lams = solve_mixture_weights(np.asarray([r[2] for r in rewrites]))
    post_records = []
    for k, ((t, fidx, target), lam) in enumerate(zip(rewrites, lams)):
        heavy = int(rng.integers(0, 256))
        post_records.append(_write_record(t, paths[fidx], target, REWRITE_PAYLOAD_BYTES,
                                          heavy, float(lam)))
        if (k + 1) % RENAME_EVERY == 0:
            post_records.append(EventRecord(
                timestamp=t + step / 4.0,
                source_path=paths[fidx],
                op="rename",
                histogram=ByteHistogram(),
                bytes=0,
            ))

    meta = TraceMeta(
        scenario=spec.kind, seed=spec.seed, label=LABEL_RANSOMWARE,
        duration=spec.duration, onset_at=onset, ramp=spec.ramp,
        file_count=spec.file_count, target_dirs=spec.target_dirs,
    )
    return Trace(meta, tuple(pre_records + post_records))


def _materialize_writes(events, paths, rng) -> list[EventRecord]:
    """Give each file a stable heavy byte and synthesize all write payloads."""
    heavies = rng.integers(32, 127, size=len(paths))  # printable range, text-like
    lams = solve_mixture_weights(np.asarray([e[2] for e in events])) if events else []
    records = []
    for (t, fidx, target, size), lam in zip(events, lams):
        records.append(_write_record(t, paths[fidx], target, size, int(heavies[fidx]), float(lam)))
    return records
