"""Golden pin for every reproduced table and figure.

Runs all experiments serially in-process at cap 5000 and compares each
CSV they would write (``paragraph run all --cap 5000 --out DIR``) with the
committed goldens in ``benchmarks/e2e/golden/cap5000/``, byte for byte.
The only tolerance is for wall-clock columns: ``abl-twopass`` reports the
seconds each method took, so its ``Fwd sec`` and ``2-pass sec`` cells are
blanked on both sides before comparing.

Every number in the tables is a pure function of the workload traces and
the placement rule, so any drift here means analysis semantics changed.
The test reads the goldens and writes nothing. After a deliberate semantic
change, regenerate them with::

    PYTHONPATH=src python -m repro.harness run all --cap 5000 --out DIR
    cp DIR/*.csv benchmarks/e2e/golden/cap5000/
"""

import csv
import io
import os

import pytest

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import TraceStore

CAP = 5000
GOLDEN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "golden", f"cap{CAP}"
)
#: Columns that hold wall-clock timings, per CSV file name.
MASKED_COLUMNS = {"abl-twopass.csv": ("Fwd sec", "2-pass sec")}


def masked_rows(text: str, name: str):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    positions = [rows[0].index(column) for column in MASKED_COLUMNS.get(name, ())]
    for row in rows[1:]:
        for position in positions:
            row[position] = ""
    return rows


@pytest.fixture(scope="module")
def produced():
    """CSV file name -> the text ``run --out`` would write for it."""
    store = TraceStore()
    files = {}
    for name in EXPERIMENTS:
        tables = run_experiment(name, store, CAP).tables
        for index, table in enumerate(tables):
            suffix = "" if len(tables) == 1 else f".{index}"
            files[f"{name}{suffix}.csv"] = table.to_csv() + "\n"
    return files


def golden_names():
    return sorted(name for name in os.listdir(GOLDEN_DIR) if name.endswith(".csv"))


class TestGoldenTables:
    def test_every_experiment_pinned(self, produced):
        assert sorted(produced) == golden_names()

    @pytest.mark.parametrize("name", golden_names())
    def test_csv_matches_golden(self, produced, name):
        with open(os.path.join(GOLDEN_DIR, name), newline="") as handle:
            expected = handle.read()
        if name in MASKED_COLUMNS:
            assert masked_rows(produced[name], name) == masked_rows(expected, name)
        else:
            assert produced[name] == expected, f"{name} drifted from its golden"

    def test_masked_columns_exist(self, produced):
        # the mask must keep naming real columns, or it would hide nothing
        for name, columns in MASKED_COLUMNS.items():
            header = next(csv.reader(io.StringIO(produced[name])))
            assert set(columns) <= set(header)
