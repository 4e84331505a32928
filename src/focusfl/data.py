"""Datasets for the simulator: synthesis, partitioning, label noise, and I/O.

A :class:`Dataset` is an immutable pair of a float64 feature matrix and an
integer label vector, tagged with the number of classes.  Everything here is
deterministic given the seeds carried by the plan/spec objects.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, InvalidInputError, as_int, as_items, as_path, as_positive, as_real, frozen_f64

# Magic prefix of the binary dataset container (version 1).
DATASET_MAGIC = b"FOCUSDS1"
MAX_CLASSES = 2**32 - 1  # the container stores the class count and each label as a u32

NOISE_KINDS = ("randomize", "pairwise_flip")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, dim) float64 plus labels (n,) in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = frozen_f64(self.features, "features", 2)
        if features.shape[1] == 0:  # no model can take zero inputs
            raise InvalidInputError(f"features must have at least one column, got shape {features.shape}")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise InvalidInputError(
                f"labels must be 1-D with one entry per row, got {labels.shape} for {features.shape[0]} rows"
            )
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            if labels.dtype.kind not in "bf" or not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
                raise InvalidInputError("labels must be integers")
        num_classes = as_int("num_classes", self.num_classes, 2)
        if num_classes > MAX_CLASSES:
            raise InvalidInputError(f"num_classes must be at most {MAX_CLASSES}, got {num_classes}")
        # Checked before the cast, which would wrap or warn on labels beyond int64.
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise InvalidInputError(
                f"labels must lie in [0, {num_classes}), got range [{labels.min()}, {labels.max()}]"
            )
        labels = labels.astype(np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", num_classes)

    def __reduce__(self):
        # Unpickle through the constructor, so the arrays come back frozen.
        return (type(self), (self.features, self.labels, self.num_classes))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """New dataset holding the given rows (copies, original untouched)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def blob_args(num_classes, samples_per_class, dim, separation) -> Tuple[int, int, int, float]:
    """:func:`synth_blobs`' source arguments as stored; a bad one is a :class:`ConfigurationError`.

    ``num_classes`` is at most :data:`MAX_CLASSES`, ``dim`` at least
    ``num_classes - 1``, and every generator array fits NumPy's size limit.
    """
    try:
        num_classes = as_int("num_classes", num_classes, 2)
        samples_per_class = as_int("samples_per_class", samples_per_class, 1)
        dim = as_int("dim", dim, 0)
        separation = as_positive("separation", separation)
    except InvalidInputError as exc:
        raise ConfigurationError(str(exc)) from exc
    if num_classes > MAX_CLASSES:
        raise ConfigurationError(f"num_classes must be at most {MAX_CLASSES}, got {num_classes}")
    if dim < num_classes - 1:
        raise ConfigurationError(
            f"dim={dim} is too small to place {num_classes} class means at mutual "
            f"distance {separation}; need dim >= {num_classes - 1}"
        )
    if 8 * max(num_classes**2, dim**2, num_classes * samples_per_class * dim) > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"num_classes={num_classes}, samples_per_class={samples_per_class} and dim={dim} "
            "need a generator array larger than NumPy can hold"
        )
    return num_classes, samples_per_class, dim, separation


def synth_blobs(
    num_classes: int,
    samples_per_class: int,
    dim: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Balanced Gaussian blobs with unit covariance and equidistant means.

    Class means sit at the vertices of a regular simplex with edge length
    ``separation`` (so every pair of means is at distance >= separation,
    with equality), randomly rotated in ``dim`` dimensions by the seed.
    Placing ``num_classes`` mutually equidistant means requires
    ``dim >= num_classes - 1``; smaller ``dim`` is rejected.

    Rows are ordered class by class: ``samples_per_class`` rows of class 0,
    then class 1, and so on.  Every bad argument is a configuration error.
    """
    num_classes, samples_per_class, dim, separation = blob_args(num_classes, samples_per_class, dim, separation)
    try:
        seed = as_int("seed", seed, 0)
    except InvalidInputError as exc:
        raise ConfigurationError(str(exc)) from exc
    rng = np.random.default_rng(seed)

    # Start from scaled standard-basis points in R^C, whose pairwise distance
    # is exactly `separation`; center them and project onto the (C-1)-dim
    # subspace they span, then pad up to `dim`.
    simplex = np.eye(num_classes) * (separation / np.sqrt(2.0))
    simplex -= simplex.mean(axis=0)
    _, _, vt = np.linalg.svd(simplex, full_matrices=False)
    coords = simplex @ vt[: num_classes - 1].T
    means = np.zeros((num_classes, dim))
    means[:, : num_classes - 1] = coords

    # Random rotation so the class geometry is not axis-aligned.  Fixing the
    # signs of R's diagonal makes the QR factorization canonical.
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    means = means @ q.T

    features = np.empty((num_classes * samples_per_class, dim))
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * samples_per_class, (c + 1) * samples_per_class)
        features[block] = means[c] + rng.standard_normal((samples_per_class, dim))
        labels[block] = c
    return Dataset(features, labels, num_classes)


@dataclass(frozen=True)
class PartitionPlan:
    """How to split one dataset into client shards, benchmark, and test parts.

    The test part is drawn first (``test_fraction`` of all rows); the
    benchmark is then ``benchmark_fraction`` of the remaining pool; the rest
    is split across ``num_clients`` clients, equally unless
    ``client_proportions`` says otherwise.
    """

    num_clients: int
    benchmark_fraction: float
    test_fraction: float
    seed: int = 0
    client_proportions: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "num_clients", as_int("num_clients", self.num_clients, 1))
        object.__setattr__(self, "seed", as_int("seed", self.seed, 0))
        for name in ("benchmark_fraction", "test_fraction"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if not (0.0 < self.benchmark_fraction < 1.0):
            raise InvalidInputError(
                f"benchmark_fraction must lie in (0, 1), got {self.benchmark_fraction}"
            )
        if not (0.0 < self.test_fraction < 1.0):
            raise InvalidInputError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.client_proportions is not None:
            props = as_items("client_proportions", self.client_proportions, as_real)
            if len(props) != self.num_clients:
                raise InvalidInputError(
                    f"client_proportions has {len(props)} entries for {self.num_clients} clients"
                )
            if any(p <= 0 for p in props):
                raise InvalidInputError(f"client_proportions must be positive, got {props}")
            if abs(sum(props) - 1.0) > 1e-9:
                raise InvalidInputError(f"client_proportions must sum to 1, got sum {sum(props)}")
            object.__setattr__(self, "client_proportions", props)


def _apportion(total: int, proportions: Tuple[float, ...]) -> np.ndarray:
    """Integer sizes matching `proportions` of `total` (largest remainder)."""
    raw = np.asarray(proportions) * total
    sizes = np.floor(raw).astype(np.int64)
    short = total - int(sizes.sum())
    if short:
        # Hand leftover rows to the largest fractional remainders, lower
        # index first on ties.
        order = np.lexsort((np.arange(len(raw)), -(raw - sizes)))
        sizes[order[:short]] += 1
    return sizes


def partition(d: Dataset, plan: PartitionPlan) -> Tuple[Tuple[Dataset, ...], Dataset, Dataset]:
    """Shuffle ``d`` and split it into (client shards, benchmark, test).

    The shards are disjoint by construction and their union is exactly ``d``
    (up to row order).  Any empty part is rejected, since every part has a
    job downstream.
    """
    rng = np.random.default_rng(plan.seed)
    order = rng.permutation(d.n)
    n_test = int(round(plan.test_fraction * d.n))
    pool = d.n - n_test
    n_bench = int(round(plan.benchmark_fraction * pool))
    remaining = pool - n_bench
    props = plan.client_proportions or tuple(1.0 / plan.num_clients for _ in range(plan.num_clients))
    client_sizes = _apportion(remaining, props) if remaining > 0 else np.zeros(plan.num_clients, np.int64)
    if n_test < 1 or n_bench < 1 or np.any(client_sizes < 1):
        raise ConfigurationError(
            f"partition of {d.n} rows into {plan.num_clients} clients with "
            f"benchmark_fraction={plan.benchmark_fraction}, test_fraction={plan.test_fraction} "
            f"leaves an empty part (test={n_test}, benchmark={n_bench}, clients={client_sizes.tolist()})"
        )
    test = d.subset(order[:n_test])
    bench = d.subset(order[n_test : n_test + n_bench])
    clients = []
    pos = n_test + n_bench
    for size in client_sizes:
        clients.append(d.subset(order[pos : pos + size]))
        pos += int(size)
    return tuple(clients), bench, test


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption to apply to client shards.

    ``kind`` is ``"randomize"`` (redraw uniformly over all classes, so a
    corrupted label can land on its original value by chance) or
    ``"pairwise_flip"`` (send each mapped class to ``flip_map[class]``).
    ``fraction`` of rows are corrupted, chosen without replacement.
    ``target_clients`` names which client shards the harness applies this to.
    """

    kind: str
    fraction: float
    target_clients: Tuple[int, ...] = ()
    seed: int = 0
    flip_map: Optional[Mapping[int, int]] = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInputError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "fraction", as_real("noise fraction", self.fraction))
        if not (0.0 <= self.fraction <= 1.0):
            raise InvalidInputError(f"noise fraction must lie in [0, 1], got {self.fraction}")
        targets = as_items("target_clients", self.target_clients, as_int)
        if len(set(targets)) != len(targets):
            raise InvalidInputError(f"target_clients contains duplicates: {targets}")
        object.__setattr__(self, "target_clients", targets)
        object.__setattr__(self, "seed", as_int("seed", self.seed, 0))
        if self.kind == "pairwise_flip":
            if not self.flip_map:
                raise InvalidInputError("pairwise_flip requires a flip_map")
            if not isinstance(self.flip_map, Mapping):
                raise InvalidInputError(f"flip_map must be a mapping, got {self.flip_map!r}")
            fmap = {as_int("flip_map", k): as_int("flip_map", v) for k, v in self.flip_map.items()}
            if set(fmap.values()) != set(fmap.keys()):
                raise InvalidInputError(
                    f"flip_map must permute the mapped classes, got {fmap}"
                )
            if any(k == v for k, v in fmap.items()):
                raise InvalidInputError(f"flip_map must have no fixed points, got {fmap}")
            object.__setattr__(self, "flip_map", fmap)
        elif self.flip_map is not None:
            raise InvalidInputError(f"flip_map is only valid for pairwise_flip, got kind={self.kind!r}")


def inject_noise(d: Dataset, spec: NoiseSpec) -> Dataset:
    """Corrupted copy of ``d`` per ``spec``; the original is untouched.

    Exactly ``round(fraction * n)`` rows are selected without replacement.
    ``randomize`` redraws their labels uniformly over all classes (so a
    corrupted row may keep its old label by chance); ``pairwise_flip`` maps
    labels through ``flip_map``, leaving labels outside the map unchanged.
    """
    if d.n == 0:
        raise InvalidInputError("cannot inject noise into an empty dataset")
    rng = np.random.default_rng(spec.seed)
    count = int(round(spec.fraction * d.n))
    labels = d.labels.copy()
    if count:
        idx = rng.choice(d.n, size=count, replace=False)
        if spec.kind == "randomize":
            labels[idx] = rng.integers(0, d.num_classes, size=count)
        else:
            if any(c >= d.num_classes for c in spec.flip_map):
                raise InvalidInputError(
                    f"flip_map mentions classes outside [0, {d.num_classes})"
                )
            lookup = np.arange(d.num_classes)
            for src, dst in spec.flip_map.items():
                lookup[src] = dst
            labels[idx] = lookup[labels[idx]]
    return Dataset(d.features, labels, d.num_classes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Every CSV focusfl writes holds floats, except in these columns.
_CSV_COLUMN_TYPES = {"round": int, "client": int, "label": int, "series": str}


def write_csv(path, header: str, rows) -> None:
    """Write ``header``, then one line per row, with ``\\n`` line ends.

    Each cell is ``str`` of its column's type, which for a float is ``repr``:
    it round-trips float64 exactly, so a rerun writes the same bytes.
    """
    types = [_CSV_COLUMN_TYPES.get(name, float) for name in header.split(",")]
    lines = [header, *(",".join(str(kind(v)) for kind, v in zip(types, row)) for row in rows)]
    Path(as_path("path", path)).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path, header: str) -> List[tuple]:
    """The typed rows of a file written by :func:`write_csv` with ``header``.

    Blank lines and whitespace around a line are ignored, so CRLF line ends
    read too.  The file's header must equal ``header``.
    """
    lines = _read_csv_lines(path, header)
    next(lines)
    return list(lines)


def _read_csv_lines(path, header: Optional[str]) -> Iterator:
    """Yield the header line, then the typed rows one at a time."""
    with open(as_path("path", path), "r", encoding="utf-8") as fh:
        lines = ((lineno, line.strip()) for lineno, line in enumerate(fh, start=1) if line.strip())
        _, first = next(lines, (0, ""))
        if header is not None and first != header:
            raise InvalidInputError(f"{path}: malformed header {first!r}, expected {header!r}")
        yield first
        types = [_CSV_COLUMN_TYPES.get(name, float) for name in first.split(",")]
        for lineno, line in lines:
            cells = line.split(",")
            if len(cells) != len(types):
                raise InvalidInputError(
                    f"{path}:{lineno}: malformed row {line!r}: {len(cells)} cells, expected {len(types)}"
                )
            try:
                row = tuple(kind(cell) for kind, cell in zip(types, cells))
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from exc
            yield row


def _dataset_header(dim: int) -> str:
    return ",".join([f"f{j}" for j in range(dim)] + ["label"])


def save_csv(d: Dataset, path: str) -> None:
    """Write ``d`` as CSV with header ``f0,...,f{dim-1},label``."""
    write_csv(path, _dataset_header(d.dim), [(*x, y) for x, y in zip(d.features.tolist(), d.labels.tolist())])


def load_csv(path: str, num_classes: Optional[int] = None) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    ``num_classes`` defaults to ``max(label) + 1``, clamped to [2, ``MAX_CLASSES``],
    when not given, since the CSV carries no class count of its own.
    """
    rows = _read_csv_lines(path, None)
    header = next(rows)
    dim = header.count(",")
    table = np.fromiter(itertools.chain.from_iterable(rows), np.float64).reshape(-1, dim + 1)
    if header != _dataset_header(dim):  # after the rows, so a bad row is reported first
        raise InvalidInputError(f"{path}: malformed header {header!r}")
    features, labels = table[:, :-1], table[:, -1]
    if num_classes is None:  # a non-integral maximum is Dataset's to reject
        num_classes = min(labels.max(initial=1) + 1, MAX_CLASSES)
    try:
        return Dataset(features, labels, num_classes)
    except InvalidInputError as exc:  # a content error names the file too
        raise InvalidInputError(f"{path}: {exc}") from exc


def save_binary(d: Dataset, path: str) -> None:
    """Write ``d`` in the binary container (magic ``FOCUSDS1``).

    Layout, all little-endian: magic, u32 row count, u32 feature dim,
    u32 class count, row-major float64 features, then u32 labels.
    """
    # Built before the file is opened, so a bad ``d`` leaves no file behind.
    parts = (
        DATASET_MAGIC + struct.pack("<III", d.n, d.dim, d.num_classes),
        np.ascontiguousarray(d.features, dtype="<f8").tobytes(),
        d.labels.astype("<u4").tobytes(),
    )
    with open(as_path("path", path), "wb") as fh:
        fh.writelines(parts)


def load_binary(path: str) -> Dataset:
    """Read a dataset written by :func:`save_binary`."""
    with open(as_path("path", path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(DATASET_MAGIC) + 12:
        raise InvalidInputError(f"{path}: truncated dataset file")
    if blob[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise InvalidInputError(
            f"{path}: bad magic {blob[:len(DATASET_MAGIC)]!r}, expected {DATASET_MAGIC!r}"
        )
    n, dim, num_classes = struct.unpack_from("<III", blob, len(DATASET_MAGIC))
    offset = len(DATASET_MAGIC) + 12
    expected = offset + n * dim * 8 + n * 4
    if len(blob) != expected:
        raise InvalidInputError(f"{path}: file is {len(blob)} bytes, expected {expected} for n={n}, dim={dim}")
    features = np.frombuffer(blob, dtype="<f8", count=n * dim, offset=offset).reshape(n, dim)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=offset + n * dim * 8).astype(np.int64)
    try:
        return Dataset(features, labels, num_classes)
    except InvalidInputError as exc:  # a content error names the file too
        raise InvalidInputError(f"{path}: {exc}") from exc
