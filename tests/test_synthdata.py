import csv
import hashlib

import numpy as np

from fairscarce import synthdata, tabular


def test_generator_shape_and_determinism():
    t1 = synthdata.generate_rows(500, seed=7)
    t2 = synthdata.generate_rows(500, seed=7)
    assert t1.n_rows == 500
    assert len(t1.column_names) == 15
    assert all(len(col) == 500 for col in t1.columns)
    assert t1.columns == t2.columns
    t3 = synthdata.generate_rows(500, seed=8)
    assert t3.columns != t1.columns


def test_write_corpus_matches_rowwise_writer(tmp_path):
    # an odd row count, written by the package and by a writer that formats
    # and writes one row tuple at a time
    synthdata.write_corpus(tmp_path / "c.csv", 1001, seed=3)
    table = synthdata.generate_rows(1001, seed=3)
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names)
        for i in range(table.n_rows):
            writer.writerow(tuple(str(col[i]) for col in table.columns))
    got = (tmp_path / "c.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    # the corpus is a pure function of (rows, seed): these bytes must not move
    assert hashlib.sha256(got).hexdigest() == (
        "51f1a12b2300e96dad20fc445aef10f46a15db9cbaaf261764a34454719e59ed")


def test_corpus_loads_through_pipeline(tmp_path):
    csv = tmp_path / "c.csv"
    synthdata.write_corpus(csv, 48842, seed=0)
    schema_path = tmp_path / "c.schema"
    synthdata.write_schema(schema_path)
    schema = tabular.Schema.from_file(schema_path)
    table = tabular.load_csv(csv, schema)
    assert table.n_rows == 48842
    assert len(table.column_names) == 15


def test_corpus_marginals_census_like():
    table = synthdata.generate_rows(20000, seed=1)
    male = np.array(table.column("sex")) == "Male"
    pos = np.array(table.column("income")) == ">50K"
    assert 0.6 < male.mean() < 0.75
    # strong group gap in positive rates, the regime the method targets
    assert pos[male].mean() - pos[~male].mean() > 0.10
    assert 0.15 < pos.mean() < 0.35


def test_relationship_cue_mostly_deterministic():
    table = synthdata.generate_rows(20000, seed=2)
    rel = np.array(table.column("relationship"))
    male = np.array(table.column("sex")) == "Male"
    husbands = rel == "Husband"
    wives = rel == "Wife"
    assert male[husbands].mean() > 0.9
    assert male[wives].mean() < 0.1
    assert 0.35 < (husbands | wives).mean() < 0.65
