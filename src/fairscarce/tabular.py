"""Tabular loading, encoding, and the demographic-scarce split.

A corpus is read column by column: ``load_csv`` validates the CSV row by row,
parses the declared-numeric cells as it goes and keeps one float array or
token tuple per column, and ``encode`` turns those columns into features
(numeric columns standardized by the fitting rows, categorical ones one-hot
over the whole column's vocabulary), writing the rows of each part of a split
straight into that part's own matrix.

The split picks its rows from the labels and the sensitive column alone
(``split_scarce_rows``), before any encoding, and produces three disjoint
parts: ``d1`` keeps task labels but has its sensitive column masked, ``d2``
keeps the sensitive column but has labels masked, and ``test`` keeps both.
Masked columns stay attached to the Dataset so evaluation code can recover
ground truth; training code must only read the visible ``labels`` /
``sensitive`` fields.
"""
from __future__ import annotations

import csv
import zipfile
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .configio import parse_kv, read_kv_file
from .errors import ConfigError, FairscarceError

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

    The header must hold the target, the sensitive column and every column
    the schema gives a kind (ConfigError otherwise), so a misspelt
    ``kind.<name>`` fails like a missing column. Cells are stripped of
    surrounding whitespace. Each cell of a column the schema declares
    ``numeric`` is parsed with ``float()`` once, as its row is read, and the
    column is kept as a float64 array. A row with the wrong number of cells
    or a bad numeric cell raises ConfigError (with its line number) in
    strict mode or is dropped (and counted) otherwise. Every other column,
    and the target and sensitive columns whatever their kind, keeps its
    tokens as a tuple of strings that holds one ``str`` object per
    distinct token: a repeated token is stored as a reference to its first
    occurrence, so a column costs a pointer per row plus its vocabulary."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: no header row")
        header = tuple(h.strip() for h in header)
        for needed in (schema.target, schema.sensitive, *schema.kinds):
            if needed not in header:
                raise ConfigError(f"{path}: declared column {needed!r} not in header")
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
                raise ConfigError(f"{path}:{lineno}: {bad}")
            dropped += 1
    if not n_rows:
        raise ConfigError(f"{path}: no data rows")
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


def encode(table: RawTable, fitting_rows: Sequence[int], schema: Schema,
           parts: Sequence[Sequence[int]]) -> list[Dataset]:
    """Encode the rows of each part of ``table`` into a Dataset of its own:
    every column except the target and the sensitive one becomes features, in
    header order, and those two map to {0,1} labels and attributes. A part's
    sample ids are its table row indices, in the order given.

    A numeric column becomes one feature, standardized by the mean and
    population std of the sorted unique ``fitting_rows`` (a zero std becomes
    divisor 1). A categorical column becomes a one-hot block over the
    lexicographic vocabulary of the whole column, so every token in the table
    encodes and every part gets the same feature columns. A column the schema
    does not declare is numeric when every token parses as a float. Each
    part's rows are written straight into its own matrix, so no matrix of
    every row is built: a part equals the rows of the whole table's encoding
    bit for bit. Empty or out-of-range ``fitting_rows`` raise FairscarceError."""
    n = table.n_rows
    fit = np.unique(np.asarray(fitting_rows, dtype=np.intp))
    if len(fit) == 0:
        raise FairscarceError("no fitting rows")
    if fit[0] < 0 or fit[-1] >= n:
        raise FairscarceError(f"fitting rows outside [0, {n})")
    numeric = []  # (feature column, values, fitted mean, divisor)
    onehot = []  # (first feature column, vocabulary code of each row)
    width = 0
    for name, tokens in zip(table.column_names, table.columns):
        if name in (schema.target, schema.sensitive):
            continue
        values = _numeric_values(tokens, schema.kinds.get(name))
        if values is not None:
            fitted = values[fit]
            std = float(fitted.std())
            numeric.append((width, values, float(fitted.mean()), std if std > 0.0 else 1.0))
            width += 1
        else:
            vocab = sorted(set(tokens))
            index = {tok: j for j, tok in enumerate(vocab)}
            onehot.append((width, np.fromiter(map(index.__getitem__, tokens),
                                              dtype=np.intp, count=n)))
            width += len(vocab)
    labels = _indicator(table.column(schema.target), schema.positive_token)
    sensitive = _indicator(table.column(schema.sensitive), schema.privileged_token)
    out = []
    for part in parts:
        rows = np.array(part, dtype=np.intp)
        features = np.zeros((len(rows), width))
        for column, values, mean, divisor in numeric:
            features[:, column] = (values[rows] - mean) / divisor
        at = np.arange(len(rows))
        for start, codes in onehot:
            features[at, start + codes[rows]] = 1.0
        out.append(Dataset(features, rows, labels[rows], sensitive[rows]))
    return out


# --- demographic-scarce split ------------------------------------------------

@dataclass(frozen=True)
class ScarceSplit:
    """d1: labels only; d2: sensitive only; test: both. Pairwise disjoint."""

    d1: Dataset
    d2: Dataset
    test: Dataset

    @classmethod
    def of(cls, d1: Dataset, d2: Dataset, test: Dataset) -> "ScarceSplit":
        """The split of three fully labelled parts: d1's sensitive vector and
        d2's labels move to their masked fields."""
        return cls(Dataset(d1.features, d1.sample_ids, labels=d1.labels,
                           masked_sensitive=d1.sensitive),
                   Dataset(d2.features, d2.sample_ids, sensitive=d2.sensitive,
                           masked_labels=d2.labels),
                   test)


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
        raise ConfigError("a (sensitive, label) stratification cell is empty")
    rng = np.random.default_rng(seed)
    counts = _apportion([len(c) for c in cells], fraction)
    chosen = []
    for cell, k in zip(cells, counts):
        order = rng.permutation(len(cell))
        chosen.append(cell[order[:k]])
    return np.sort(np.concatenate(chosen))


def split_scarce_rows(labels: np.ndarray, sensitive: np.ndarray, ratio: float, seed: int,
                     test_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of d1, d2 and test, each ascending: a stratified holdout
    of ``test_fraction`` of the rows is the test part, and a second one, with
    the derived seed ``seed + 1``, takes the group-labelled part d2
    (fraction ``ratio``) from the remainder; d1 is what is left. Ascending
    rows keep sample ids ascending, so the d1 row order of phase 1's per-row
    outputs is ascending sample id. A part that would hold no row, or an
    empty (sensitive, label) cell, raises ConfigError."""
    if not 0.0 < ratio < 1.0 or not 0.0 < test_fraction < 1.0:
        raise ValueError("ratio and test_fraction must lie in (0, 1)")
    test_rows = stratified_holdout(labels, sensitive, test_fraction, seed)
    mask = np.ones(len(labels), dtype=bool)
    mask[test_rows] = False
    rest_rows = np.flatnonzero(mask)
    in_d2 = np.zeros(len(rest_rows), dtype=bool)
    in_d2[stratified_holdout(labels[rest_rows], sensitive[rest_rows], ratio, seed + 1)] = True
    parts = rest_rows[~in_d2], rest_rows[in_d2], test_rows
    for name, rows in zip(("d1", "d2", "test"), parts):
        if len(rows) == 0:
            raise ConfigError(
                f"the {name} split of {len(labels)} rows holds no row (group-labelled ratio "
                f"{ratio}, test fraction {test_fraction}); raise its share or use a larger corpus")
    return parts


# --- dataset cache io --------------------------------------------------------
# One uncompressed npz archive per Dataset. The feature matrix, mostly one-hot
# zeros, is stored as its CSR parts ``data``, ``indices``, ``indptr`` and
# ``shape``, exactly as ``scipy.sparse.csr_array(features)`` would hold them
# (float64 data; int32 indices and indptr unless a dimension or the nonzero
# count passes the int32 range; an int64 shape), built with numpy alone;
# ``sample_ids`` and whichever label / sensitive / masked vectors are present
# follow under their own names (absent ones are left out). Loading checks
# that the parts describe a matrix of that shape, with each row's columns
# increasing, and densifies them back to the same float64 values (a -0.0
# entry is not stored, so it comes back as 0.0). Nothing is unpickled.

_VECTOR_FIELDS = ("sample_ids", "labels", "sensitive", "masked_labels", "masked_sensitive")


def save_dataset(path, ds: Dataset) -> None:
    rows, cols = np.nonzero(ds.features)  # row-major, as CSR stores them
    shape = ds.features.shape
    index = np.int32 if max(*shape, len(rows)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    arrays = {"data": ds.features[rows, cols], "indices": cols.astype(index),
              "indptr": indptr.astype(index), "shape": np.array(shape)}
    arrays.update((name, getattr(ds, name)) for name in _VECTOR_FIELDS
                  if getattr(ds, name) is not None)
    # through a handle, so the archive lands at exactly ``path`` (a path
    # argument would get ".npz" appended)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _csr_to_dense(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  shape: np.ndarray) -> np.ndarray:
    """The float64 matrix of ``shape`` whose row i holds ``data`` at the
    columns ``indices`` over ``indptr[i]:indptr[i + 1]``; ValueError unless
    the parts describe such a matrix with each row's columns increasing, and
    it can be allocated."""
    if shape.shape != (2,) or shape.dtype.kind not in "iu" or (shape < 0).any():
        raise ValueError("shape is not two non-negative integers")
    n, width = map(int, shape)
    if any(v.ndim != 1 for v in (data, indices, indptr)):
        raise ValueError("data, indices and indptr must be vectors")
    if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
        raise ValueError("indices and indptr must be integers")
    indices, indptr = indices.astype(np.int64), indptr.astype(np.int64)
    counts = np.diff(indptr)
    if len(indptr) != n + 1 or indptr[0] != 0 or (counts < 0).any():
        raise ValueError(f"indptr does not rise from 0 over {n} rows")
    if indptr[-1] != len(indices) or len(indices) != len(data):
        raise ValueError("indptr, indices and data disagree on the nonzero count")
    if len(indices) and not (0 <= indices.min() and indices.max() < width):
        raise ValueError(f"a column index lies outside [0, {width})")
    at = np.repeat(np.arange(n) * width, counts) + indices  # flat positions
    if (np.diff(at) <= 0).any():
        raise ValueError("a row's column indices do not increase")
    try:
        features = np.zeros((n, width))
    except MemoryError as exc:  # a damaged width passes every check above
        raise ValueError(f"its dense ({n}, {width}) matrix cannot be allocated") from exc
    features.reshape(-1)[at] = data
    return features


def read_npz(path, what: str) -> dict[str, np.ndarray]:
    """Every array of the npz archive at ``path``, by name, read without
    unpickling. A file that cannot be read, is no whole npz archive, or has
    an array that is damaged or holds Python objects raises ConfigError
    naming it as not ``what`` (numpy's own message for such a file would
    suggest unpickling it)."""
    reason = "not an npz archive, or a truncated one"
    try:
        # np.load of a path leaves its file open when zipfile rejects the
        # archive; this handle closes on every path
        with open(path, "rb") as fh, np.load(fh) as archive:
            arrays = {}
            for name in archive.files:
                reason = f"its array {name!r} is damaged or holds Python objects"
                arrays[name] = archive[name]
        return arrays
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile):
        # TypeError: a lone .npy array, which is no archive
        raise ConfigError(f"{path} is not {what} ({reason}); rerun train-attr") from None


def load_dataset(path) -> Dataset:
    arrays = read_npz(path, "a CSR npz dataset cache")
    try:
        features = _csr_to_dense(*(arrays.pop(name) for name in ("data", "indices", "indptr",
                                                                  "shape")))
        return Dataset(features, **arrays)
    except (KeyError, ValueError, TypeError) as exc:
        # KeyError: a dense-features archive from an earlier version
        raise ConfigError(f"{path} is not a CSR npz dataset cache ({exc}); "
                          "rerun train-attr to rebuild the run directory") from exc


def prepare_split(csv_path, schema: Schema, ratio: float, test_fraction: float,
                  seed: int, strict: bool = True) -> tuple[ScarceSplit, int]:
    """Full pipeline: load, pick the rows of each part
    (``split_scarce_rows``), then encode each part into its own matrix with
    the numeric statistics fitted on everything except the test rows (no
    leakage into test standardization). Returns the split and how many
    malformed rows the load dropped (always 0 when ``strict``)."""
    table = load_csv(csv_path, schema, strict=strict)
    y = _indicator(table.column(schema.target), schema.positive_token)
    a = _indicator(table.column(schema.sensitive), schema.privileged_token)
    d1_rows, d2_rows, test_rows = split_scarce_rows(y, a, ratio, seed, test_fraction)
    d1, d2, test = encode(table, np.concatenate((d1_rows, d2_rows)), schema,
                          (d1_rows, d2_rows, test_rows))
    return ScarceSplit.of(d1, d2, test), table.n_dropped
