import csv
import gc
import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from fairscarce import synthdata, tabular
from fairscarce.errors import ConfigError, FairscarceError

SCHEMA_TEXT = """
target = income
positive = >50K
sensitive = sex
privileged = Male
kind.age = numeric
"""


@pytest.fixture
def schema():
    return tabular.Schema.from_text(SCHEMA_TEXT)


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_csv_three_rows(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", [
        "age,sex,income",
        "25,Male,>50K",
        "30,Female,<=50K",
        "41,Male,<=50K",
    ])
    table = tabular.load_csv(path, schema)
    assert table.n_rows == 3
    assert len(table.column_names) == 3


def test_load_csv_missing_sensitive_column(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", ["age,income", "25,>50K"])
    with pytest.raises(ConfigError, match=r"t\.csv: declared column 'sex' not in header"):
        tabular.load_csv(path, schema)


def test_load_csv_empty(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", ["age,sex,income"])
    with pytest.raises(ConfigError, match=r"t\.csv: no data rows"):
        tabular.load_csv(path, schema)


def test_load_csv_strict_vs_lenient(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", [
        "age,sex,income",
        "25,Male,>50K",
        "not-a-number,Female,<=50K",
        "30,Female,<=50K",
    ])
    with pytest.raises(ConfigError,
                       match=r"t\.csv:3: column 'age' cell 'not-a-number' is not numeric"):
        tabular.load_csv(path, schema, strict=True)
    table = tabular.load_csv(path, schema, strict=False)
    assert table.n_rows == 2
    assert table.n_dropped == 1


def test_load_csv_shares_tokens_and_parses_numbers_once(tmp_path):
    synthdata.write_corpus(tmp_path / "census.csv", 2000, seed=2)
    synthdata.write_schema(tmp_path / "census.schema")
    schema = tabular.Schema.from_file(tmp_path / "census.schema")
    table = tabular.load_csv(tmp_path / "census.csv", schema)
    with open(tmp_path / "census.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for j, name in enumerate(header):
        column = table.column(name)
        raw = [row[j].strip() for row in rows]
        if schema.kinds.get(name) == tabular.NUMERIC:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.tolist() == [float(t) for t in raw], name
        else:
            # one str object per distinct token, however many rows hold it
            assert list(column) == raw, name
            assert len({id(t) for t in column}) == len(set(raw)) < len(raw), name


def test_load_csv_malformed_row_messages(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", [
        "age,sex,income",
        "25,Male,>50K",
        " 31 ,Female,<=50K",
        "forty,Female,<=50K",
        "52,Male",
        "47,Male,>50K",
    ])
    with pytest.raises(ConfigError, match=r"t\.csv:4: column 'age' cell 'forty' is not numeric"):
        tabular.load_csv(path, schema)
    table = tabular.load_csv(path, schema, strict=False)
    assert table.n_dropped == 2
    assert table.column("age").tolist() == [25.0, 31.0, 47.0]
    assert table.column("sex") == ("Male", "Female", "Male")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"t\.csv:4: 2 cells for 3 columns"):
        tabular.load_csv(path, schema)


def make_table(*rows, columns=("age", "sex", "income")):
    return tabular.RawTable(tuple(columns), tuple(zip(*rows)))


def parses_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def reference_encode(table, fitting_rows, schema):
    """Row-wise encoding: infer each column's kind, fit the numeric
    statistics on the sorted unique fitting rows, then standardize and
    one-hot token by token. Kept as the bit-exact reference for the columnar
    ``tabular.encode``."""
    ids = sorted(set(int(i) for i in fitting_rows))
    n = table.n_rows
    blocks = []
    for name in table.column_names:
        if name in (schema.target, schema.sensitive):
            continue
        tokens = list(table.column(name))
        kind = schema.kinds.get(name)
        if kind is None:
            kind = tabular.NUMERIC if all(map(parses_as_float, tokens)) else tabular.CATEGORICAL
        if kind == tabular.NUMERIC:
            fitted = np.array([float(tokens[i]) for i in ids])
            std = float(fitted.std())
            values = np.array([float(t) for t in tokens])
            blocks.append(((values - float(fitted.mean())) / (std if std > 0.0 else 1.0))[:, None])
        else:
            index = {tok: j for j, tok in enumerate(sorted(set(tokens)))}
            block = np.zeros((n, len(index)))
            for i, tok in enumerate(tokens):
                block[i, index[tok]] = 1.0
            blocks.append(block)
    labels = np.array([1 if t == schema.positive_token else 0
                       for t in table.column(schema.target)], dtype=int)
    sensitive = np.array([1 if t == schema.privileged_token else 0
                          for t in table.column(schema.sensitive)], dtype=int)
    return tabular.Dataset(np.column_stack(blocks), np.arange(n), labels, sensitive)


def encode_all(table, fitting_rows, schema):
    """``tabular.encode`` of every table row, as one Dataset."""
    return tabular.encode(table, fitting_rows, schema, [np.arange(table.n_rows)])[0]


def masked_parts(ds, d1_rows, d2_rows, test_rows):
    """The split that takes each part's rows from ``ds`` and hides d1's
    sensitive vector and d2's labels."""
    d1, d2 = ds.take(d1_rows), ds.take(d2_rows)
    return tabular.ScarceSplit(
        tabular.Dataset(d1.features, d1.sample_ids, labels=d1.labels,
                        masked_sensitive=d1.sensitive),
        tabular.Dataset(d2.features, d2.sample_ids, sensitive=d2.sensitive,
                        masked_labels=d2.labels),
        ds.take(test_rows))


def reference_prepare_split(path, schema, ratio, test_fraction, seed, strict=True):
    """Encode every row row-wise, then take each part's rows out of that one
    matrix: the bit-exact reference for ``prepare_split``, which encodes
    each part into its own matrix."""
    table = tabular.load_csv(path, schema, strict=strict)
    y = np.array([t == schema.positive_token for t in table.column(schema.target)], dtype=int)
    a = np.array([t == schema.privileged_token for t in table.column(schema.sensitive)],
                 dtype=int)
    mask = np.ones(table.n_rows, dtype=bool)
    mask[tabular.stratified_holdout(y, a, test_fraction, seed)] = False
    ds = reference_encode(table, np.flatnonzero(mask), schema)
    rows = tabular.split_scarce_rows(ds.labels, ds.sensitive, ratio, seed, test_fraction)
    return masked_parts(ds, *rows)


def age_feature(table, fitting_rows, schema):
    """The encoded age column, the first feature of every table below."""
    return encode_all(table, fitting_rows, schema).features[:, 0]


# the fitted encoding, read off the features: numeric statistics from the
# fitting rows, vocabularies from the whole column

def test_fit_encoder_numeric_population_std(schema):
    table = make_table(["1", "Male", ">50K"], ["2", "Female", "<=50K"], ["3", "Male", ">50K"])
    # mean 2, population std sqrt(2/3) = 0.8165 (the sample std would be 1)
    np.testing.assert_allclose(age_feature(table, [0, 1, 2], schema),
                               np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0 / 3.0))


def test_fit_encoder_constant_column(schema):
    table = make_table(["5", "Male", ">50K"], ["5", "Female", "<=50K"], ["5", "Male", "<=50K"],
                       ["7", "Female", "<=50K"])
    # zero std on the fitting rows: centred on 5, divided by 1
    np.testing.assert_array_equal(age_feature(table, [0, 1, 2], schema), [0.0, 0.0, 0.0, 2.0])


def test_fit_encoder_vocabulary_lexicographic(schema):
    table = make_table(["1", "b", "Male", ">50K"], ["2", "a", "Female", "<=50K"],
                       ["3", "b", "Male", ">50K"], columns=("age", "tok", "sex", "income"))
    ds = encode_all(table, [0, 1, 2], schema)
    # the one-hot block after age lists "a" before "b"
    np.testing.assert_array_equal(ds.features[:, 1:], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def test_fit_encoder_stats_from_fitting_rows_only(schema):
    table = make_table(["1", "Male", ">50K"], ["2", "Female", "<=50K"],
                       ["3", "Male", ">50K"], ["100", "Female", "<=50K"])
    # row 3 is encoded with the mean and std of rows 0-2 alone
    np.testing.assert_allclose(age_feature(table, [0, 1, 2], schema),
                               np.array([-1.0, 0.0, 1.0, 98.0]) / math.sqrt(2.0 / 3.0))


def test_fit_encoder_empty(schema):
    table = make_table(["1", "Male", ">50K"])
    with pytest.raises(FairscarceError, match="no fitting rows"):
        tabular.encode(table, [], schema, [[0]])
    with pytest.raises(FairscarceError, match=r"fitting rows outside \[0, 1\)"):
        tabular.encode(table, [1], schema, [[0]])


def test_encode_dimensions_and_mappings(schema):
    table = make_table(["1", "red", "Male", ">50K"], ["2", "blue", "Female", "<=50K"],
                       ["3", "red", "Male", "<=50K"], columns=("age", "color", "sex", "income"))
    ds = encode_all(table, [0, 1, 2], schema)
    # 1 numeric + 2 one-hot dims; target and sensitive excluded
    assert ds.features.shape == (3, 3)
    np.testing.assert_array_equal(ds.labels, [1, 0, 0])
    np.testing.assert_array_equal(ds.sensitive, [1, 0, 1])


def test_encode_parts_are_rows_of_whole_encoding(schema):
    # each part gets every feature column, the vocabulary of the whole
    # column included, and its rows in the order given
    table = make_table(["1", "red", "Male", ">50K"], ["2", "blue", "Female", "<=50K"],
                       ["-3", "green", "Male", "<=50K"], ["4", "red", "Female", ">50K"],
                       columns=("age", "color", "sex", "income"))
    whole = encode_all(table, [0, 1], schema)
    parts = tabular.encode(table, [1, 0, 1], schema, [[3, 0], [2], []])
    for rows, part in zip([[3, 0], [2], []], parts):
        want = whole.take(np.array(rows, dtype=np.intp))
        for name in ("features", "sample_ids", "labels", "sensitive"):
            a, b = getattr(part, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def test_encode_roundtrip_through_csv(tmp_path, schema):
    table = make_table(["1.5", "red", "Male", ">50K"], ["2.25", "blue", "Female", "<=50K"],
                       ["3.0", "red", "Male", "<=50K"], columns=("age", "color", "sex", "income"))
    path = tmp_path / "round.csv"
    path.write_text("".join(",".join(row) + "\n"
                            for row in (table.column_names, *zip(*table.columns))),
                    encoding="utf-8")
    back = tabular.load_csv(path, schema)
    assert back.column_names == table.column_names
    # the declared-numeric age column comes back parsed, the others as tokens
    age = back.column("age")
    assert isinstance(age, np.ndarray) and age.dtype == np.float64
    assert age.tolist() == [float(t) for t in table.column("age")]
    assert back.columns[1:] == table.columns[1:]
    a = encode_all(table, [0, 1, 2], schema)
    b = encode_all(back, [0, 1, 2], schema)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def assert_splits_identical(got, want):
    for part in ("d1", "d2", "test"):
        g, w = getattr(got, part), getattr(want, part)
        for name in ("features", "sample_ids", "labels", "sensitive", "masked_labels",
                     "masked_sensitive"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a is None) == (b is None), f"{part}.{name}"
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, f"{part}.{name}"
                assert a.tobytes() == b.tobytes(), f"{part}.{name}"


def test_prepare_split_matches_rowwise_reference_on_demo_corpus(tmp_path):
    synthdata.write_corpus(tmp_path / "census.csv", 3000, seed=4)
    synthdata.write_schema(tmp_path / "census.schema")
    schema = tabular.Schema.from_file(tmp_path / "census.schema")
    got, _ = tabular.prepare_split(tmp_path / "census.csv", schema, 0.2, 0.3, seed=4)
    want = reference_prepare_split(tmp_path / "census.csv", schema, 0.2, 0.3, seed=4)
    assert_splits_identical(got, want)


def test_prepare_split_matches_rowwise_reference_on_lenient_load(tmp_path):
    # malformed rows among the good ones: a lenient load drops them, and the
    # row indices of every later row shift down
    synthdata.write_corpus(tmp_path / "census.csv", 1500, seed=9)
    synthdata.write_schema(tmp_path / "census.schema")
    schema = tabular.Schema.from_file(tmp_path / "census.schema")
    lines = (tmp_path / "census.csv").read_text().splitlines()
    age = lines[0].split(",").index("age")
    for at in (7, 400, 1201):
        cells = lines[at].split(",")
        cells[age] = "forty"
        lines[at] = ",".join(cells)
    lines[900] = lines[900].rsplit(",", 1)[0]  # one cell short
    path = write_lines(tmp_path, "damaged.csv", lines)
    # lines[7] is line 8 of the file
    with pytest.raises(ConfigError,
                       match=r"damaged\.csv:8: column 'age' cell 'forty' is not numeric"):
        tabular.prepare_split(path, schema, 0.2, 0.3, seed=9)
    got, rows_dropped = tabular.prepare_split(path, schema, 0.2, 0.3, seed=9, strict=False)
    assert rows_dropped == 4
    assert len(got.d1) + len(got.d2) + len(got.test) == 1500 - 4
    assert_splits_identical(got, reference_prepare_split(path, schema, 0.2, 0.3, seed=9,
                                                         strict=False))


def test_prepare_split_matches_rowwise_reference_on_undeclared_numeric(tmp_path, schema):
    # "score" is not declared, but every token parses, so it encodes as one
    # standardized feature; "color" is undeclared and categorical
    rng = np.random.default_rng(8)
    lines = ["age,score,color,sex,income"]
    for _ in range(240):
        lines.append(f"{rng.integers(20, 60)},{rng.normal(3.0, 2.0):.4f},"
                     f"{rng.choice(['red', 'blue', 'green'])},{rng.choice(['Male', 'Female'])},"
                     f"{rng.choice(['>50K', '<=50K'])}")
    path = write_lines(tmp_path, "corpus.csv", lines)
    got, _ = tabular.prepare_split(path, schema, 0.25, 0.3, seed=2)
    assert got.d1.features.shape[1] == 1 + 1 + 3
    assert_splits_identical(got, reference_prepare_split(path, schema, 0.25, 0.3, seed=2))


def balanced_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    labels = np.tile([0, 1], n // 2)
    sensitive = np.repeat([0, 1], n // 2)
    return tabular.Dataset(features, np.arange(n), labels, sensitive)


def split_rows(ds, ratio, seed, test_fraction):
    """The d1, d2 and test row indices of ``ds``."""
    return tabular.split_scarce_rows(ds.labels, ds.sensitive, ratio, seed, test_fraction)


def test_split_scarce_counts():
    d1, d2, test = split_rows(balanced_dataset(100), ratio=0.2, seed=3, test_fraction=0.3)
    assert len(test) == 30
    assert len(d2) == 14
    assert len(d1) == 56


def test_split_scarce_deterministic():
    ds = balanced_dataset(100)
    for a, b in zip(split_rows(ds, 0.2, 7, 0.3), split_rows(ds, 0.2, 7, 0.3)):
        np.testing.assert_array_equal(a, b)


def test_split_scarce_ratio_tolerance():
    d1, d2, _ = split_rows(balanced_dataset(400, seed=1), ratio=0.05, seed=2, test_fraction=0.25)
    assert abs(len(d2) - 0.05 * (len(d1) + len(d2))) <= 1.0


def test_split_scarce_disjoint_union():
    all_rows = np.concatenate(split_rows(balanced_dataset(150, seed=4), 0.3, 11, 0.2))
    assert sorted(all_rows.tolist()) == list(range(150))


def test_split_scarce_masking(tmp_path):
    synthdata.write_corpus(tmp_path / "census.csv", 600, seed=3)
    synthdata.write_schema(tmp_path / "census.schema")
    schema = tabular.Schema.from_file(tmp_path / "census.schema")
    split, _ = tabular.prepare_split(tmp_path / "census.csv", schema, 0.2, 0.3, seed=0)
    assert split.d1.sensitive is None and split.d1.labels is not None
    assert split.d2.labels is None and split.d2.sensitive is not None
    assert split.test.labels is not None and split.test.sensitive is not None
    # the ratio is d2's share of the rows outside test
    assert len(split.d2) == round(0.2 * (len(split.d1) + len(split.d2)))
    # masked truth is still reachable for evaluation
    table = tabular.load_csv(tmp_path / "census.csv", schema)
    y = np.array([t == ">50K" for t in table.column("income")], dtype=int)
    a = np.array([t == "Male" for t in table.column("sex")], dtype=int)
    np.testing.assert_array_equal(tabular.oracle_sensitive(split.d1), a[split.d1.sample_ids])
    np.testing.assert_array_equal(split.d2.masked_labels, y[split.d2.sample_ids])
    np.testing.assert_array_equal(split.test.labels, y[split.test.sample_ids])


def test_split_scarce_stratification_frequencies():
    rng = np.random.default_rng(9)
    n = 1000
    labels = (rng.random(n) < 0.3).astype(int)
    sensitive = (rng.random(n) < 0.6).astype(int)
    # guarantee non-empty cells
    labels[:4] = [0, 0, 1, 1]
    sensitive[:4] = [0, 1, 0, 1]
    _, _, test = tabular.split_scarce_rows(labels, sensitive, 0.2, 5, 0.3)
    for a in (0, 1):
        for y in (0, 1):
            full = np.sum((labels == y) & (sensitive == a))
            got = np.sum((labels[test] == y) & (sensitive[test] == a))
            assert abs(got - 0.3 * full) <= 2.0


def test_split_scarce_keeps_sample_ids_ascending(tmp_path):
    # phase 1 writes d1's conformal scores in d1 row order as sample-id order
    ds = balanced_dataset(300, seed=6)
    for rows in (split_rows(ds, 0.25, 9, 0.3), split_rows(ds, 0.05, 2, 0.5)):
        for part in rows:
            assert np.all(np.diff(part) > 0)
    synthdata.write_corpus(tmp_path / "census.csv", 2000, seed=6)
    synthdata.write_schema(tmp_path / "census.schema")
    schema = tabular.Schema.from_file(tmp_path / "census.schema")
    split, _ = tabular.prepare_split(tmp_path / "census.csv", schema, 0.2, 0.3, seed=6)
    for part in (split.d1, split.d2, split.test):
        assert np.all(np.diff(part.sample_ids) > 0)


def test_split_scarce_matches_copy_of_remainder_reference():
    # the split once copied the non-test rows and drew d1 and d2 out of that
    # copy; picking their row indices from the labels alone must select the
    # same rows
    ds = balanced_dataset(300, seed=6)
    ds = tabular.Dataset(ds.features, ds.sample_ids[::-1].copy(), ds.labels, ds.sensitive)
    ratio, seed, test_fraction = 0.25, 9, 0.3
    mask = np.ones(len(ds), dtype=bool)
    mask[tabular.stratified_holdout(ds.labels, ds.sensitive, test_fraction, seed)] = False
    rest = ds.take(np.flatnonzero(mask))
    in_d2 = np.zeros(len(rest), dtype=bool)
    in_d2[tabular.stratified_holdout(rest.labels, rest.sensitive, ratio, seed + 1)] = True
    d1, d2 = rest.take(np.flatnonzero(~in_d2)), rest.take(np.flatnonzero(in_d2))
    want = tabular.ScarceSplit(
        tabular.Dataset(d1.features, d1.sample_ids, labels=d1.labels,
                        masked_sensitive=d1.sensitive),
        tabular.Dataset(d2.features, d2.sample_ids, sensitive=d2.sensitive,
                        masked_labels=d2.labels),
        ds.take(np.flatnonzero(~mask)))
    got = masked_parts(ds, *split_rows(ds, ratio, seed, test_fraction))
    assert_splits_identical(got, want)
    d1, d2, test = (ds.take(rows) for rows in split_rows(ds, ratio, seed, test_fraction))
    assert_splits_identical(tabular.ScarceSplit.of(d1, d2, test), want)


def test_split_scarce_empty_cell_raises():
    labels = np.ones(40, dtype=int)  # no y=0 rows at all
    sensitive = np.tile([0, 1], 20)
    with pytest.raises(ConfigError, match="stratification cell is empty"):
        tabular.split_scarce_rows(labels, sensitive, 0.2, 1, 0.3)


@pytest.mark.parametrize("ratio,test_fraction,part", [(0.2, 0.001, "test"),
                                                      (0.001, 0.3, "d2"),
                                                      (0.999, 0.3, "d1")])
def test_split_scarce_empty_part_raises(ratio, test_fraction, part):
    ds = balanced_dataset(300, seed=2)
    with pytest.raises(ConfigError, match=f"the {part} split of 300 rows holds no row"):
        split_rows(ds, ratio, 4, test_fraction)


def test_dataset_cache_roundtrip(tmp_path):
    ds = balanced_dataset(38, seed=12)
    # a one-hot block next to the dense column, so the CSR parts skip zeros;
    # every fifth row all zeros and a -0.0 entry in the rows after them
    features = np.column_stack([ds.features, np.eye(38)[:, :4]])
    features[::5] = 0.0
    features[1::5, 0] = -0.0
    ds = tabular.Dataset(features, ds.sample_ids, ds.labels, ds.sensitive)
    split = masked_parts(ds, *split_rows(ds, 0.25, 3, 0.2))
    parts = (("d1.ds", split.d1), ("d2.ds", split.d2), ("test.ds", split.test),
             ("empty.ds", split.test.take(np.arange(0))))
    for name, part in parts:
        tabular.save_dataset(tmp_path / name, part)
        with np.load(tmp_path / name) as archive:
            # features are stored as CSR parts only, never as a dense array,
            # and exactly as scipy holds them
            assert "features" not in archive.files
            assert {"data", "indices", "indptr", "shape"} <= set(archive.files)
            csr = sparse.csr_array(part.features)
            for field in ("data", "indices", "indptr"):
                want, got = getattr(csr, field), archive[field]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
            assert archive["shape"].dtype == np.array(csr.shape).dtype
            assert tuple(archive["shape"]) == csr.shape
        back = tabular.load_dataset(tmp_path / name)
        assert back.features.dtype == np.float64
        # -0.0 is not stored, so it comes back as 0.0 (adding 0.0 maps it there)
        assert back.features.tobytes() == (part.features + 0.0).tobytes()
        np.testing.assert_array_equal(part.sample_ids, back.sample_ids)
        for name in ("labels", "sensitive", "masked_labels", "masked_sensitive"):
            a, b = getattr(part, name), getattr(back, name)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)
    stored = np.concatenate([part.features for _, part in parts])
    assert not stored.any(axis=1).all() and np.signbit(stored[stored == 0.0]).any()
    # each archive sits at exactly the given path, with no ".npz" appended
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1.ds", "d2.ds", "empty.ds",
                                                          "test.ds"]


def test_read_npz_closes_a_truncated_archive(tmp_path):
    path = tmp_path / "d1.ds"
    tabular.save_dataset(path, balanced_dataset(50, seed=1))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="not an npz archive, or a truncated one"):
            tabular.read_npz(path, "a CSR npz dataset cache")
        gc.collect()  # a file left open warns when it is collected
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], caught


def test_prepare_split_pipeline(tmp_path, schema):
    rng = np.random.default_rng(2)
    lines = ["age,color,sex,income"]
    for i in range(200):
        age = f"{rng.integers(20, 60)}"
        color = rng.choice(["red", "blue", "green"])
        sex = rng.choice(["Male", "Female"])
        income = rng.choice([">50K", "<=50K"])
        lines.append(f"{age},{color},{sex},{income}")
    path = write_lines(tmp_path, "corpus.csv", lines)
    split, rows_dropped = tabular.prepare_split(path, schema, ratio=0.2, test_fraction=0.3,
                                                seed=5)
    assert rows_dropped == 0
    total = len(split.d1) + len(split.d2) + len(split.test)
    assert total == 200
    assert abs(len(split.d2) - 0.2 * (len(split.d1) + len(split.d2))) <= 1.0
    # age is standardized on d1 and d2 only: centred there, and the test rows
    # (which did not feed the mean) move the mean over all rows off zero
    fitted = np.concatenate([split.d1.features[:, 0], split.d2.features[:, 0]])
    assert abs(fitted.mean()) < 1e-12
    everything = np.concatenate([fitted, split.test.features[:, 0]])
    assert abs(everything.mean()) > 1e-3
