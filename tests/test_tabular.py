import math

import numpy as np
import pytest

from fairscarce import tabular
from fairscarce.errors import (
    EmptyFile,
    EmptyFit,
    InsufficientRows,
    MalformedRow,
    MissingColumn,
)

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
    with pytest.raises(MissingColumn):
        tabular.load_csv(path, schema)


def test_load_csv_empty(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", ["age,sex,income"])
    with pytest.raises(EmptyFile):
        tabular.load_csv(path, schema)


def test_load_csv_strict_vs_lenient(tmp_path, schema):
    path = write_lines(tmp_path, "t.csv", [
        "age,sex,income",
        "25,Male,>50K",
        "not-a-number,Female,<=50K",
        "30,Female,<=50K",
    ])
    with pytest.raises(MalformedRow):
        tabular.load_csv(path, schema, strict=True)
    table = tabular.load_csv(path, schema, strict=False)
    assert table.n_rows == 2
    assert table.n_dropped == 1


def make_table(*rows, columns=("age", "sex", "income")):
    return tabular.RawTable(tuple(columns), tuple(tuple(r) for r in rows))


def test_fit_encoder_numeric_population_std(schema):
    table = make_table(["1", "Male", ">50K"], ["2", "Female", "<=50K"], ["3", "Male", ">50K"])
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    assert enc.means["age"] == pytest.approx(2.0)
    assert enc.divisors["age"] == pytest.approx(math.sqrt(2.0 / 3.0))  # 0.8165


def test_fit_encoder_constant_column(schema):
    table = make_table(["5", "Male", ">50K"], ["5", "Female", "<=50K"], ["5", "Male", "<=50K"])
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    assert enc.means["age"] == 5.0
    assert enc.divisors["age"] == 1.0


def test_fit_encoder_vocabulary_lexicographic(schema):
    table = tabular.RawTable(("age", "tok", "sex", "income"),
                             (("1", "b", "Male", ">50K"),
                              ("2", "a", "Female", "<=50K"),
                              ("3", "b", "Male", ">50K")))
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    assert enc.vocabularies["tok"] == ("a", "b")


def test_fit_encoder_stats_from_fitting_rows_only(schema):
    table = make_table(["1", "Male", ">50K"], ["2", "Female", "<=50K"],
                       ["3", "Male", ">50K"], ["100", "Female", "<=50K"])
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    assert enc.means["age"] == pytest.approx(2.0)


def test_fit_encoder_empty(schema):
    table = make_table(["1", "Male", ">50K"])
    with pytest.raises(EmptyFit):
        tabular.fit_encoder(table, [], schema)


def test_encode_dimensions_and_mappings(schema):
    table = tabular.RawTable(("age", "color", "sex", "income"),
                             (("1", "red", "Male", ">50K"),
                              ("2", "blue", "Female", "<=50K"),
                              ("3", "red", "Male", "<=50K")))
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    ds = tabular.encode(table, enc, schema)
    # 1 numeric + 2 one-hot dims; target and sensitive excluded
    assert ds.features.shape == (3, 3)
    np.testing.assert_array_equal(ds.labels, [1, 0, 0])
    np.testing.assert_array_equal(ds.sensitive, [1, 0, 1])


def test_encode_roundtrip_through_csv(tmp_path, schema):
    table = tabular.RawTable(("age", "color", "sex", "income"),
                             (("1.5", "red", "Male", ">50K"),
                              ("2.25", "blue", "Female", "<=50K"),
                              ("3.0", "red", "Male", "<=50K")))
    path = tmp_path / "round.csv"
    path.write_text("".join(",".join(row) + "\n" for row in (table.column_names, *table.rows)),
                    encoding="utf-8")
    back = tabular.load_csv(path, schema)
    enc = tabular.fit_encoder(table, [0, 1, 2], schema)
    a = tabular.encode(table, enc, schema)
    b = tabular.encode(back, enc, schema)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def balanced_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    labels = np.tile([0, 1], n // 2)
    sensitive = np.repeat([0, 1], n // 2)
    return tabular.Dataset(features, np.arange(n), labels, sensitive)


def test_split_scarce_counts():
    ds = balanced_dataset(100)
    split = tabular.split_scarce(ds, ratio=0.2, seed=3, test_fraction=0.3)
    assert len(split.test) == 30
    assert len(split.d2) == 14
    assert len(split.d1) == 56


def test_split_scarce_deterministic():
    ds = balanced_dataset(100)
    s1 = tabular.split_scarce(ds, 0.2, 7, 0.3)
    s2 = tabular.split_scarce(ds, 0.2, 7, 0.3)
    np.testing.assert_array_equal(s1.d2.sample_ids, s2.d2.sample_ids)
    np.testing.assert_array_equal(s1.test.sample_ids, s2.test.sample_ids)


def test_split_scarce_ratio_tolerance():
    ds = balanced_dataset(400, seed=1)
    split = tabular.split_scarce(ds, ratio=0.05, seed=2, test_fraction=0.25)
    n2, n1 = len(split.d2), len(split.d1)
    assert abs(n2 - 0.05 * (n1 + n2)) <= 1.0


def test_split_scarce_disjoint_union():
    ds = balanced_dataset(150, seed=4)
    split = tabular.split_scarce(ds, 0.3, 11, 0.2)
    all_ids = np.concatenate([split.d1.sample_ids, split.d2.sample_ids, split.test.sample_ids])
    assert len(set(all_ids.tolist())) == len(all_ids) == 150


def test_split_scarce_masking():
    ds = balanced_dataset(100)
    split = tabular.split_scarce(ds, 0.2, 0, 0.3)
    assert split.d1.sensitive is None and split.d1.labels is not None
    assert split.d2.labels is None and split.d2.sensitive is not None
    assert split.test.labels is not None and split.test.sensitive is not None
    # masked truth is still reachable for evaluation
    np.testing.assert_array_equal(tabular.oracle_sensitive(split.d1),
                                  ds.sensitive[split.d1.sample_ids])
    np.testing.assert_array_equal(tabular.oracle_labels(split.d2),
                                  ds.labels[split.d2.sample_ids])


def test_split_scarce_stratification_frequencies():
    rng = np.random.default_rng(9)
    n = 1000
    labels = (rng.random(n) < 0.3).astype(int)
    sensitive = (rng.random(n) < 0.6).astype(int)
    # guarantee non-empty cells
    labels[:4] = [0, 0, 1, 1]
    sensitive[:4] = [0, 1, 0, 1]
    ds = tabular.Dataset(rng.normal(size=(n, 2)), np.arange(n), labels, sensitive)
    split = tabular.split_scarce(ds, 0.2, 5, 0.3)
    test_y = tabular.oracle_labels(split.test)
    test_a = tabular.oracle_sensitive(split.test)
    for a in (0, 1):
        for y in (0, 1):
            full = np.sum((labels == y) & (sensitive == a))
            got = np.sum((test_y == y) & (test_a == a))
            assert abs(got - 0.3 * full) <= 2.0


def test_split_scarce_empty_cell_raises():
    n = 40
    rng = np.random.default_rng(0)
    labels = np.ones(n, dtype=int)  # no y=0 rows at all
    sensitive = np.tile([0, 1], n // 2)
    ds = tabular.Dataset(rng.normal(size=(n, 2)), np.arange(n), labels, sensitive)
    with pytest.raises(InsufficientRows):
        tabular.split_scarce(ds, 0.2, 1, 0.3)


def test_dataset_cache_roundtrip(tmp_path):
    ds = balanced_dataset(38, seed=12)
    # a one-hot block next to the dense column, so the CSR parts skip zeros
    ds = tabular.Dataset(np.column_stack([ds.features, np.eye(38)[:, :4]]), ds.sample_ids,
                         ds.labels, ds.sensitive)
    split = tabular.split_scarce(ds, 0.25, 3, 0.2)
    for name, part in (("d1.ds", split.d1), ("d2.ds", split.d2), ("test.ds", split.test)):
        tabular.save_dataset(tmp_path / name, part)
        with np.load(tmp_path / name) as archive:
            # features are stored as CSR parts only, never as a dense array
            assert "features" not in archive.files
            assert {"data", "indices", "indptr", "shape"} <= set(archive.files)
            assert len(archive["data"]) == np.count_nonzero(part.features)
        back = tabular.load_dataset(tmp_path / name)
        assert back.features.dtype == np.float64
        assert back.features.tobytes() == part.features.tobytes()
        np.testing.assert_array_equal(part.sample_ids, back.sample_ids)
        for name in ("labels", "sensitive", "masked_labels", "masked_sensitive"):
            a, b = getattr(part, name), getattr(back, name)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)
    # each archive sits at exactly the given path, with no ".npz" appended
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1.ds", "d2.ds", "test.ds"]


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
    split, enc = tabular.prepare_split(path, schema, ratio=0.2, test_fraction=0.3, seed=5)
    total = len(split.d1) + len(split.d2) + len(split.test)
    assert total == 200
    assert abs(len(split.d2) - 0.2 * (len(split.d1) + len(split.d2))) <= 1.0
    # encoder fit on non-test rows only: re-fitting on all rows shifts the mean
    assert "age" in enc.means
