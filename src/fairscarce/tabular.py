"""Tabular loading, encoding, and the demographic-scarce split.

A corpus is read column by column: ``load_csv`` validates the CSV row by row,
parses the declared-numeric cells as it goes and keeps one float array or
token tuple per column, and ``encode`` turns those columns into the feature
matrix in one pass each (numeric columns standardized by the fitting rows,
categorical ones one-hot over the whole column's vocabulary).

The split produces three disjoint parts: ``d1`` keeps task labels but has its
sensitive column masked, ``d2`` keeps the sensitive column but has labels
masked, and ``test`` keeps both. Masked columns stay attached to the Dataset
so evaluation code can recover ground truth; training code must only read the
visible ``labels`` / ``sensitive`` fields.
"""
from __future__ import annotations

import csv
import zipfile
from array import array
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
    """Parsed CSV, column-major: the header and one column per name, all of
    the same length. A column is a float64 array once parsed as numbers, or
    a tuple of string tokens."""

    column_names: tuple[str, ...]
    columns: tuple[tuple[str, ...] | np.ndarray, ...]
    n_dropped: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    def column(self, name: str) -> tuple[str, ...] | np.ndarray:
        return self.columns[self.column_names.index(name)]


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path, schema: Schema, strict: bool = True) -> RawTable:
    """Read a UTF-8 CSV with a header row into a column-major RawTable.

    Cells are stripped of surrounding whitespace. Each cell of a column the
    schema declares ``numeric`` is parsed with ``float()`` once, as its row
    is read, and the column is kept as a float64 array. A row with the wrong
    number of cells or a bad numeric cell raises MalformedRow (with its line
    number) in strict mode or is dropped (and counted) otherwise. Every
    other column, and the target and sensitive columns whatever their kind,
    keeps its tokens as a tuple of strings that holds one ``str`` object per
    distinct token: a repeated token is stored as a reference to its first
    occurrence, so a column costs a pointer per row plus its vocabulary."""
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
        numeric = [i for i, name in enumerate(header) if schema.kinds.get(name) == NUMERIC]
        text = [i for i, name in enumerate(header)
                if i not in numeric or name in (schema.target, schema.sensitive)]
        values = array("d")  # numeric cells, row after row
        tokens: list[str] = []  # text cells, row after row
        seen: dict[str, str] = {}  # the one object kept per distinct token
        n_rows = dropped = 0
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            cells = tuple(map(str.strip, cells))
            if len(cells) != len(header):
                bad = f"{len(cells)} cells for {len(header)} columns"
            else:
                try:
                    values.extend(map(float, map(cells.__getitem__, numeric)))
                except ValueError:
                    del values[n_rows * len(numeric):]  # the row's cells parsed so far
                    i = next(i for i in numeric if not _parses_as_float(cells[i]))
                    bad = f"column {header[i]!r} cell {cells[i]!r} is not numeric"
                else:
                    row_tokens = [cells[i] for i in text]
                    tokens.extend(map(seen.setdefault, row_tokens, row_tokens))
                    n_rows += 1
                    continue
            if strict:
                raise MalformedRow(f"{path}:{lineno}: {bad}")
            dropped += 1
    if not n_rows:
        raise EmptyFile(f"{path}: no data rows")
    parsed = np.frombuffer(values, dtype=float).reshape(n_rows, len(numeric))
    columns = {i: tuple(tokens[j::len(text)]) for j, i in enumerate(text)}
    for j, i in enumerate(numeric):  # a numeric target or sensitive column keeps its tokens
        columns.setdefault(i, parsed[:, j].copy())
    return RawTable(header, tuple(columns[i] for i in range(len(header))), n_dropped=dropped)


@dataclass(frozen=True)
class Dataset:
    """Encoded matrix plus optional label / sensitive vectors.

    ``masked_labels`` / ``masked_sensitive`` hold values hidden by the scarce
    split; they exist only so evaluation can score against ground truth and
    must never feed training. Evaluation reads the attribute through
    :func:`oracle_sensitive`.
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


def oracle_sensitive(ds: Dataset) -> np.ndarray:
    """Ground-truth sensitive attribute for evaluation, visible or masked."""
    if ds.sensitive is not None:
        return ds.sensitive
    if ds.masked_sensitive is not None:
        return ds.masked_sensitive
    raise ValueError("dataset carries no sensitive attribute at all")


def _indicator(tokens: Sequence[str], token: str) -> np.ndarray:
    """1 where a token equals ``token``, else 0: the {0,1} target and
    sensitive columns."""
    return np.array([t == token for t in tokens], dtype=int)


def _numeric_values(tokens: Sequence[str] | np.ndarray, kind: str | None) -> np.ndarray | None:
    """The column as floats when it is numeric: already parsed by
    ``load_csv``, declared so, or undeclared with every token parsing as a
    float; None for a categorical column."""
    if isinstance(tokens, np.ndarray):
        return tokens
    if kind == CATEGORICAL:
        return None
    try:
        return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        if kind == NUMERIC:
            raise
        return None


def encode(table: RawTable, fitting_rows: Sequence[int], schema: Schema) -> Dataset:
    """Encode every column except the target and the sensitive one, in header
    order, and map those two to {0,1} labels and attributes.

    A numeric column becomes one feature, standardized by the mean and
    population std of the sorted unique ``fitting_rows`` (a zero std becomes
    divisor 1). A categorical column becomes a one-hot block over the
    lexicographic vocabulary of the whole column, so every token in the table
    encodes. A column the schema does not declare is numeric when every token
    parses as a float. Empty or out-of-range ``fitting_rows`` raise EmptyFit."""
    n = table.n_rows
    fit = np.unique(np.asarray(fitting_rows, dtype=np.intp))
    if len(fit) == 0:
        raise EmptyFit("no fitting rows")
    if fit[0] < 0 or fit[-1] >= n:
        raise EmptyFit(f"fitting rows outside [0, {n})")
    # (first feature column, standardized values or None, one-hot codes or None)
    blocks = []
    width = 0
    for name, tokens in zip(table.column_names, table.columns):
        if name in (schema.target, schema.sensitive):
            continue
        values = _numeric_values(tokens, schema.kinds.get(name))
        if values is not None:
            fitted = values[fit]
            std = float(fitted.std())
            blocks.append((width, (values - float(fitted.mean())) / (std if std > 0.0 else 1.0),
                           None))
            width += 1
        else:
            vocab = sorted(set(tokens))
            index = {tok: j for j, tok in enumerate(vocab)}
            blocks.append((width, None, np.fromiter(map(index.__getitem__, tokens),
                                                    dtype=np.intp, count=n)))
            width += len(vocab)
    features = np.zeros((n, width))
    rows = np.arange(n)
    for start, values, codes in blocks:
        if codes is None:
            features[:, start] = values
        else:
            features[rows, start + codes] = 1.0
    return Dataset(features, rows, _indicator(table.column(schema.target), schema.positive_token),
                   _indicator(table.column(schema.sensitive), schema.privileged_token))


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
    group-labeled part d2 (fraction ``ratio``) and the label-only part d1.
    Each part keeps the rows of ``ds`` in their order there, so its sample
    ids ascend when those of ``ds`` do, as ``encode``'s (0 to n - 1) do: the
    d1 row order of phase 1's per-row outputs is ascending sample id."""
    if ds.labels is None or ds.sensitive is None:
        raise ValueError("split_scarce needs both labels and sensitive present")
    if not 0.0 < ratio < 1.0 or not 0.0 < test_fraction < 1.0:
        raise ValueError("ratio and test_fraction must lie in (0, 1)")
    test_rows = stratified_holdout(ds.labels, ds.sensitive, test_fraction, seed)
    mask = np.ones(len(ds), dtype=bool)
    mask[test_rows] = False
    rest_rows = np.flatnonzero(mask)
    # second stratified draw, derived seed, picks d2 inside the remainder;
    # d1 and d2 are taken straight from ds, with no copy of the remainder
    d2_local = stratified_holdout(ds.labels[rest_rows], ds.sensitive[rest_rows], ratio, seed + 1)
    d2_mask = np.zeros(len(rest_rows), dtype=bool)
    d2_mask[d2_local] = True

    d2_of = ds.take(rest_rows[d2_mask])
    d1_of = ds.take(rest_rows[~d2_mask])
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
                  seed: int, strict: bool = True) -> ScarceSplit:
    """Full pipeline: load, pick the test rows, encode with the numeric
    statistics fitted on everything except them (no leakage into test
    standardization), split."""
    table = load_csv(csv_path, schema, strict=strict)
    y = _indicator(table.column(schema.target), schema.positive_token)
    a = _indicator(table.column(schema.sensitive), schema.privileged_token)
    test_rows = stratified_holdout(y, a, test_fraction, seed)
    mask = np.ones(table.n_rows, dtype=bool)
    mask[test_rows] = False
    ds = encode(table, np.flatnonzero(mask), schema)
    del table  # free the tokens before the split copies the feature rows
    return split_scarce(ds, ratio, seed, test_fraction)
