"""Deterministic census-like benchmark generator.

Produces a tabular corpus with the same shape as the classic income
benchmark (15 columns, mixed numeric/categorical, binary target and binary
sensitive attribute) and the statistical regime that matters for this
package: a majority of rows whose group membership is near-deterministic
given one relationship-style column, a minority only weakly identifiable
from occupation/hours patterns, and an income rule whose positive rate
differs strongly between groups. Everything is a pure function of the seed.
"""
from __future__ import annotations

import csv

import numpy as np

from .tabular import RawTable

COLUMNS = (
    "age", "workclass", "final_weight", "education", "education_num",
    "marital_status", "occupation", "relationship", "race", "sex",
    "capital_gain", "capital_loss", "hours_per_week", "native_region", "income",
)

SCHEMA_TEXT = """\
target = income
positive = >50K
sensitive = sex
privileged = Male
kind.age = numeric
kind.final_weight = numeric
kind.education_num = numeric
kind.capital_gain = numeric
kind.capital_loss = numeric
kind.hours_per_week = numeric
"""

_WORKCLASS = ["Private", "SelfEmpNotInc", "SelfEmpInc", "FederalGov", "StateGov",
              "LocalGov", "WithoutPay", "NeverWorked"]
_WORKCLASS_P = np.array([0.694, 0.079, 0.035, 0.029, 0.041, 0.064, 0.029, 0.029])
_EDUCATION = ["Preschool", "Grades1to4", "Grades5to6", "Grades7to8", "Grade9",
              "Grade10", "Grade11", "Grade12", "HighSchool", "SomeCollege",
              "AssocVoc", "AssocAcdm", "Bachelors", "Masters", "ProfSchool",
              "Doctorate"]
_MARITAL = ["Married", "NeverMarried", "Divorced", "Separated", "Widowed",
            "MarriedSpouseAbsent"]
_OCC_NAMES = ["CraftRepair", "TransportMoving", "ProtectiveServ", "ArmedForces",
              "TechSupport", "MachineOpInspct", "FarmingFishing", "HandlersCleaners",
              "AdmClerical", "OtherService", "PrivHouseServ", "Sales",
              "ExecManagerial", "ProfSpecialty"]
# group-1 (Male) and group-0 occupation preferences; the overlap sets how
# identifiable rows without a relationship cue can ever be
_OCC_P1 = np.array([0.300, 0.165, 0.085, 0.009, 0.030, 0.080, 0.060, 0.095,
                    0.012, 0.018, 0.001, 0.050, 0.055, 0.040])
_OCC_P1 = _OCC_P1 / _OCC_P1.sum()
_OCC_P0 = np.array([0.008, 0.005, 0.003, 0.001, 0.034, 0.012, 0.004, 0.014,
                    0.398, 0.330, 0.025, 0.062, 0.050, 0.054])
_OCC_P0 = _OCC_P0 / _OCC_P0.sum()
_RACE = ["White", "Black", "AsianPacIslander", "AmerIndianEskimo", "Other"]
_RACE_P = np.array([0.725, 0.132, 0.072, 0.041, 0.030])
# long-tailed birthplace column, like real census data: one dominant level
# plus dozens of rare ones the network only sees a handful of times
_REGION = ["Homeland"] + [f"Region{i:02d}" for i in range(1, 40)]
_REGION_P = np.concatenate([[0.70], np.full(39, 0.30 / 39)])


def generate_rows(n_rows: int, seed: int = 0) -> RawTable:
    rng = np.random.default_rng(seed)
    male = rng.random(n_rows) < 0.67
    married = rng.random(n_rows) < np.where(male, 0.64, 0.50)

    # a slice of unmarried people whose occupation and hours lean toward the
    # other group's typical pattern: with no spouse anchor they are read
    # wrong at moderate confidence, capping attribute accuracy while leaving
    # the most-confident band nearly pure; married rows keep the dominant
    # spouse cue
    pattern_flip = (rng.random(n_rows) < 0.45) & ~married
    presented = male != pattern_flip

    age = np.clip(rng.normal(38 + 3 * married, 12, n_rows), 17, 90).round().astype(int)
    edu_num = np.clip(rng.normal(10.3, 2.6, n_rows), 1, 16).round().astype(int)
    education = np.array(_EDUCATION)[edu_num - 1]
    workclass = np.array(_WORKCLASS)[rng.choice(len(_WORKCLASS), n_rows, p=_WORKCLASS_P)]
    final_weight = rng.integers(20_000, 500_000, n_rows)

    occ_blend_1 = 0.50 * _OCC_P1 + 0.50 * _OCC_P0
    occ_blend_0 = 0.50 * _OCC_P0 + 0.50 * _OCC_P1
    occ_idx = np.empty(n_rows, dtype=int)
    for mask, dist in ((presented & ~pattern_flip, _OCC_P1),
                       ((~presented) & ~pattern_flip, _OCC_P0),
                       (presented & pattern_flip, occ_blend_1),
                       ((~presented) & pattern_flip, occ_blend_0)):
        if mask.any():
            occ_idx[mask] = rng.choice(len(_OCC_NAMES), int(mask.sum()), p=dist)
    occupation = np.array(_OCC_NAMES)[occ_idx]

    # a couple percent of spouse tokens are recorded for the other partner,
    # data-entry noise that keeps the cue strong but not perfectly clean
    spouse_flip = rng.random(n_rows) < 0.003
    spouse_token = np.where(male != spouse_flip, "Husband", "Wife")
    relationship = np.where(married, spouse_token,
                            np.array(["Unmarried", "OwnChild", "OtherRelative"])[
                                rng.choice(3, n_rows, p=[0.62, 0.24, 0.14])])
    marital = np.where(married, "Married",
                       np.array(_MARITAL)[rng.choice(6, n_rows,
                                                     p=[0.0, 0.55, 0.26, 0.07, 0.09, 0.03])])
    race = np.array(_RACE)[rng.choice(len(_RACE), n_rows, p=_RACE_P)]
    region = np.array(_REGION)[rng.choice(len(_REGION), n_rows, p=_REGION_P)]

    hours_mid = np.where(presented, 43.0, 37.5)
    hours = np.clip(rng.normal(hours_mid, 9.0, n_rows), 3, 99).round().astype(int)
    gain = np.where(rng.random(n_rows) < 0.08,
                    rng.lognormal(8.2, 1.0, n_rows), 0.0).round().astype(int)
    loss = np.where(rng.random(n_rows) < 0.045,
                    rng.lognormal(7.4, 0.4, n_rows), 0.0).round().astype(int)

    # income odds: human capital plus a gendered marriage effect and a small
    # residual group effect; calibrated so group positive rates land near
    # 0.30 / 0.11. Routing most of the disparity through the spouse
    # structure means models trained only on uncertain-attribute rows have
    # little gendered signal left to leak
    z = (-4.75
         + 0.42 * (edu_num - 10)
         + 0.020 * (hours - 40)
         + 0.030 * (age - 38)
         + 3.15 * (married & male).astype(float)
         + 2.05 * (married & ~male).astype(float)
         + 0.65 * male.astype(float)
         + 1.3 * (gain > 0).astype(float))
    income = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-z))

    columns = (age, workclass, final_weight, education, edu_num, marital, occupation,
               relationship, race, np.where(male, "Male", "Female"), gain, loss, hours,
               region, np.where(income, ">50K", "<=50K"))
    return RawTable(COLUMNS, tuple(tuple(map(str, col.tolist())) for col in columns))


def write_corpus(path, n_rows: int, seed: int = 0) -> None:
    table = generate_rows(n_rows, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names)
        writer.writerows(zip(*table.columns))


def write_schema(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SCHEMA_TEXT)
