"""Tabular loading, encoding, and the demographic-scarce split.

The split produces three disjoint parts: ``d1`` keeps task labels but has its
sensitive column masked, ``d2`` keeps the sensitive column but has labels
masked, and ``test`` keeps both. Masked columns stay attached to the Dataset
so evaluation code can recover ground truth; training code must only read the
visible ``labels`` / ``sensitive`` fields.
"""
from __future__ import annotations

import csv
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from .configio import parse_kv, read_kv_file
from .errors import (
    ConfigError,
    EmptyFile,
    EmptyFit,
    InsufficientRows,
    MalformedRow,
    MissingColumn,
    UnknownCategory,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Schema:
    """Column roles for one corpus: which column is the prediction target,
    which is the sensitive attribute, and which raw tokens map to 1."""

    target: str
    positive_token: str
    sensitive: str
    privileged_token: str
    kinds: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "Schema":
        kv = parse_kv(text)
        try:
            target = kv.pop("target")
            positive = kv.pop("positive")
            sensitive = kv.pop("sensitive")
            privileged = kv.pop("privileged")
        except KeyError as exc:
            raise ConfigError(f"schema is missing required key {exc.args[0]!r}") from exc
        kinds = {}
        for key, value in kv.items():
            if not key.startswith("kind."):
                raise ConfigError(f"unknown schema key {key!r}")
            if value not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"{key}: kind must be numeric or categorical, got {value!r}")
            kinds[key[len("kind."):]] = value
        return cls(target, positive, sensitive, privileged, kinds)

    @classmethod
    def from_file(cls, path) -> "Schema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass(frozen=True)
class RawTable:
    """Parsed CSV: header plus rows of string tokens."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    n_dropped: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[str]:
        idx = self.column_names.index(name)
        return [row[idx] for row in self.rows]


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path, schema: Schema, strict: bool = True) -> RawTable:
    """Read a UTF-8 CSV with a header row. Columns the schema declares
    ``numeric`` are validated cell by cell; a bad cell raises MalformedRow in
    strict mode or drops the row (counted) otherwise."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row")
        header = tuple(h.strip() for h in header)
        for needed in (schema.target, schema.sensitive):
            if needed not in header:
                raise MissingColumn(f"{path}: declared column {needed!r} not in header")
        numeric_cols = [i for i, name in enumerate(header)
                        if schema.kinds.get(name) == NUMERIC]
        rows: list[tuple[str, ...]] = []
        dropped = 0
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            cells = [c.strip() for c in cells]
            bad = None
            if len(cells) != len(header):
                bad = f"{len(cells)} cells for {len(header)} columns"
            else:
                for i in numeric_cols:
                    if not _parses_as_float(cells[i]):
                        bad = f"column {header[i]!r} cell {cells[i]!r} is not numeric"
                        break
            if bad is not None:
                if strict:
                    raise MalformedRow(f"{path}:{lineno}: {bad}")
                dropped += 1
                continue
            rows.append(tuple(cells))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return RawTable(header, tuple(rows), n_dropped=dropped)


@dataclass(frozen=True)
class Encoder:
    """Per-column encoding state.

    Numeric columns carry (mean, divisor) from the fitting rows only, with a
    zero std mapped to divisor 1. Categorical columns carry a lexicographic
    vocabulary built from the full table, so every token seen anywhere in the
    corpus encodes.
    """

    kinds: dict[str, str]
    means: dict[str, float]
    divisors: dict[str, float]
    vocabularies: dict[str, tuple[str, ...]]


def infer_kind(tokens: Sequence[str], declared: str | None) -> str:
    if declared is not None:
        return declared
    return NUMERIC if all(_parses_as_float(t) for t in tokens) else CATEGORICAL


def fit_encoder(table: RawTable, fitting_ids: Sequence[int], schema: Schema | None = None) -> Encoder:
    """Fit encoding statistics. ``fitting_ids`` index ``table.rows``; only
    those rows contribute numeric means and (population) standard deviations."""
    ids = sorted(set(int(i) for i in fitting_ids))
    if not ids:
        raise EmptyFit("no fitting rows")
    if ids[0] < 0 or ids[-1] >= table.n_rows:
        raise EmptyFit(f"fitting ids outside [0, {table.n_rows})")
    kinds: dict[str, str] = {}
    means: dict[str, float] = {}
    divisors: dict[str, float] = {}
    vocabularies: dict[str, tuple[str, ...]] = {}
    declared = schema.kinds if schema is not None else {}
    for name in table.column_names:
        tokens = table.column(name)
        kind = infer_kind(tokens, declared.get(name))
        kinds[name] = kind
        if kind == NUMERIC:
            values = np.array([float(tokens[i]) for i in ids])
            mean = float(values.mean())
            std = float(values.std())
            means[name] = mean
            divisors[name] = std if std > 0.0 else 1.0
        else:
            vocabularies[name] = tuple(sorted(set(tokens)))
    return Encoder(kinds, means, divisors, vocabularies)


@dataclass(frozen=True)
class Dataset:
    """Encoded matrix plus optional label / sensitive vectors.

    ``masked_labels`` / ``masked_sensitive`` hold values hidden by the scarce
    split; they exist only so evaluation can score against ground truth and
    must never feed training. Use :func:`oracle_labels` / :func:`oracle_sensitive`.
    """

    features: np.ndarray
    sample_ids: np.ndarray
    labels: np.ndarray | None = None
    sensitive: np.ndarray | None = None
    masked_labels: np.ndarray | None = None
    masked_sensitive: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        n = self.features.shape[0]
        if self.sample_ids.shape != (n,):
            raise ValueError("sample_ids length mismatch")
        for name in ("labels", "sensitive", "masked_labels", "masked_sensitive"):
            vec = getattr(self, name)
            if vec is not None and vec.shape != (n,):
                raise ValueError(f"{name} length mismatch")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        pick = lambda v: None if v is None else v[idx]
        return Dataset(self.features[idx], self.sample_ids[idx], pick(self.labels),
                       pick(self.sensitive), pick(self.masked_labels),
                       pick(self.masked_sensitive))


def oracle_labels(ds: Dataset) -> np.ndarray:
    """Ground-truth labels for evaluation, visible or masked."""
    if ds.labels is not None:
        return ds.labels
    if ds.masked_labels is not None:
        return ds.masked_labels
    raise ValueError("dataset carries no labels at all")


def oracle_sensitive(ds: Dataset) -> np.ndarray:
    """Ground-truth sensitive attribute for evaluation, visible or masked."""
    if ds.sensitive is not None:
        return ds.sensitive
    if ds.masked_sensitive is not None:
        return ds.masked_sensitive
    raise ValueError("dataset carries no sensitive attribute at all")


def encode(table: RawTable, enc: Encoder, schema: Schema) -> Dataset:
    """Standardize numerics, one-hot categoricals, and map the target /
    sensitive columns to {0,1}. Neither appears in the feature matrix."""
    n = table.n_rows
    feature_cols: list[np.ndarray] = []
    for name in table.column_names:
        if name in (schema.target, schema.sensitive):
            continue
        tokens = table.column(name)
        if enc.kinds[name] == NUMERIC:
            values = np.array([float(t) for t in tokens])
            feature_cols.append((values - enc.means[name]) / enc.divisors[name])
        else:
            vocab = enc.vocabularies[name]
            index = {tok: j for j, tok in enumerate(vocab)}
            block = np.zeros((n, len(vocab)))
            for i, tok in enumerate(tokens):
                if tok not in index:
                    raise UnknownCategory(f"column {name!r}: token {tok!r} not in vocabulary")
                block[i, index[tok]] = 1.0
            feature_cols.append(block)
    features = np.column_stack([c if c.ndim == 2 else c[:, None] for c in feature_cols])
    labels = np.array([1 if t == schema.positive_token else 0
                       for t in table.column(schema.target)], dtype=int)
    sensitive = np.array([1 if t == schema.privileged_token else 0
                          for t in table.column(schema.sensitive)], dtype=int)
    return Dataset(features, np.arange(n), labels, sensitive)


# --- demographic-scarce split ------------------------------------------------

@dataclass(frozen=True)
class ScarceSplit:
    """d1: labels only; d2: sensitive only; test: both. Pairwise disjoint."""

    d1: Dataset
    d2: Dataset
    test: Dataset
    group_labeled_ratio: float


def _strata(labels: np.ndarray, sensitive: np.ndarray) -> list[np.ndarray]:
    cells = []
    for a in (0, 1):
        for y in (0, 1):
            cells.append(np.flatnonzero((sensitive == a) & (labels == y)))
    return cells


def _apportion(sizes: Sequence[int], fraction: float) -> list[int]:
    """Largest-remainder allocation of round(fraction * total) across strata."""
    total = sum(sizes)
    target = int(round(fraction * total))
    ideal = [fraction * s for s in sizes]
    counts = [min(int(np.floor(v)), s) for v, s in zip(ideal, sizes)]
    remainders = sorted(range(len(sizes)),
                        key=lambda i: (-(ideal[i] - counts[i]), i))
    k = 0
    while sum(counts) < target and k < 10 * len(sizes):
        i = remainders[k % len(sizes)]
        if counts[i] < sizes[i]:
            counts[i] += 1
        k += 1
    return counts


def stratified_holdout(labels: np.ndarray, sensitive: np.ndarray, fraction: float,
                       seed: int) -> np.ndarray:
    """Row indices of a stratified holdout, its size round(fraction * n),
    with each (sensitive, label) cell represented proportionally."""
    cells = _strata(labels, sensitive)
    if any(len(c) == 0 for c in cells):
        raise InsufficientRows("a (sensitive, label) stratification cell is empty")
    rng = np.random.default_rng(seed)
    counts = _apportion([len(c) for c in cells], fraction)
    chosen = []
    for cell, k in zip(cells, counts):
        order = rng.permutation(len(cell))
        chosen.append(cell[order[:k]])
    return np.sort(np.concatenate(chosen))


def split_scarce(ds: Dataset, ratio: float, seed: int, test_fraction: float) -> ScarceSplit:
    """Carve a stratified test set, then split the remainder into the
    group-labeled part d2 (fraction ``ratio``) and the label-only part d1."""
    if ds.labels is None or ds.sensitive is None:
        raise ValueError("split_scarce needs both labels and sensitive present")
    if not 0.0 < ratio < 1.0 or not 0.0 < test_fraction < 1.0:
        raise ValueError("ratio and test_fraction must lie in (0, 1)")
    test_rows = stratified_holdout(ds.labels, ds.sensitive, test_fraction, seed)
    mask = np.ones(len(ds), dtype=bool)
    mask[test_rows] = False
    rest_rows = np.flatnonzero(mask)
    rest = ds.take(rest_rows)
    # second stratified draw, derived seed, picks d2 inside the remainder
    d2_local = stratified_holdout(rest.labels, rest.sensitive, ratio, seed + 1)
    d2_mask = np.zeros(len(rest), dtype=bool)
    d2_mask[d2_local] = True

    d2_of = rest.take(np.flatnonzero(d2_mask))
    d1_of = rest.take(np.flatnonzero(~d2_mask))
    d1 = Dataset(d1_of.features, d1_of.sample_ids, labels=d1_of.labels,
                 sensitive=None, masked_sensitive=d1_of.sensitive)
    d2 = Dataset(d2_of.features, d2_of.sample_ids, labels=None,
                 sensitive=d2_of.sensitive, masked_labels=d2_of.labels)
    test = ds.take(test_rows)
    return ScarceSplit(d1, d2, test, ratio)


# --- dataset cache io --------------------------------------------------------
# One uncompressed npz archive per Dataset. The feature matrix, mostly one-hot
# zeros, is stored as its CSR parts ``data``, ``indices``, ``indptr`` and
# ``shape``; ``sample_ids`` and whichever label / sensitive / masked vectors
# are present follow under their own names (absent ones are left out).
# Loading densifies back to the same float64 values (a -0.0 entry comes back
# as 0.0) and never unpickles.

_VECTOR_FIELDS = ("sample_ids", "labels", "sensitive", "masked_labels", "masked_sensitive")


def save_dataset(path, ds: Dataset) -> None:
    csr = sparse.csr_array(ds.features)
    arrays = {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr,
              "shape": np.array(csr.shape)}
    arrays.update((name, getattr(ds, name)) for name in _VECTOR_FIELDS
                  if getattr(ds, name) is not None)
    # through a handle, so the archive lands at exactly ``path`` (a path
    # argument would get ".npz" appended)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_dataset(path) -> Dataset:
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        csr = sparse.csr_array((arrays.pop("data"), arrays.pop("indices"), arrays.pop("indptr")),
                               shape=tuple(arrays.pop("shape")))
        return Dataset(csr.toarray(), **arrays)
    except (KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        # KeyError: a dense-features archive from an earlier version
        raise ConfigError(f"{path} is not a CSR npz dataset cache; "
                          "rerun train-attr to rebuild the run directory") from exc


def prepare_split(csv_path, schema: Schema, ratio: float, test_fraction: float,
                  seed: int, strict: bool = True) -> tuple[ScarceSplit, Encoder]:
    """Full pipeline: load, pick the test rows, fit the encoder on everything
    except them (no leakage into test standardization), encode, split."""
    table = load_csv(csv_path, schema, strict=strict)
    y = np.array([1 if t == schema.positive_token else 0 for t in table.column(schema.target)])
    a = np.array([1 if t == schema.privileged_token else 0 for t in table.column(schema.sensitive)])
    test_rows = stratified_holdout(y, a, test_fraction, seed)
    mask = np.ones(table.n_rows, dtype=bool)
    mask[test_rows] = False
    enc = fit_encoder(table, np.flatnonzero(mask), schema)
    ds = encode(table, enc, schema)
    return split_scarce(ds, ratio, seed, test_fraction), enc
