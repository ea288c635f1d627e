"""Golden fits: short fits of every method through ``cli.main``, compared byte for byte.

``tests/data/fits/`` holds, for each input and method, the model file and
the trace CSV (without its ``millis`` column) of

    fit --topics 2 --max-iter 5 --tol 1e-300 --seed 0   (--lambda 0.5 for sparse)

on ``tests/data/v2/smoke.mtx`` and on ``zero-block.mtx``, a seeded matrix
whose off-diagonal blocks are structural zeros.  A change that moves an
iterate by one ulp changes these bytes.  Each fit runs twice: as the
process's affinity mask splits the kernels (for these small inputs, one
range in the calling thread), and with every kernel and ``digamma`` /
``log-gamma`` pass split over three ranges run by worker threads.  Both
must write the same bytes.

After a change that is meant to move the iterates, write the files again
with ``PYTHONPATH=src python tests/test_golden_fits.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from simplexnmf import io, types
from simplexnmf.cli import main
from simplexnmf.types import METHODS

from helpers import zero_block_matrix

DATA = Path(__file__).parent / "data"
FITS = DATA / "fits"
INPUTS = {"smoke": DATA / "v2" / "smoke.mtx", "zero-block": FITS / "zero-block.mtx"}


def golden_fit(source: str, method: str, out: Path) -> tuple[bytes, bytes]:
    """The model file's bytes and the trace CSV's ``iter,objective,recon_evals`` bytes of one fit."""
    model, trace = out / f"{source}-{method}.json", out / f"{source}-{method}.csv"
    argv = ["fit", "--input", str(INPUTS[source]), "--method", method, "--topics", "2", "--max-iter", "5",
            "--tol", "1e-300", "--seed", "0", "--output", str(model), "--trace", str(trace)]
    if method == "sparse":
        argv += ["--lambda", "0.5"]
    assert main(argv) == 0
    rows = trace.read_text(encoding="utf-8").splitlines()
    return model.read_bytes(), "".join(row.rsplit(",", 1)[0] + "\n" for row in rows).encode("ascii")


@pytest.mark.parametrize("split", [False, True], ids=["as-masked", "split"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("source", list(INPUTS))
def test_a_fit_writes_the_golden_bytes(tmp_path, monkeypatch, capsys, source, method, split):
    if split:
        monkeypatch.setattr(types, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(types, "_RANGE_WORK", 1)
    model, trace = golden_fit(source, method, tmp_path)
    assert model == (FITS / f"{source}-{method}.json").read_bytes()
    assert trace == (FITS / f"{source}-{method}.csv").read_bytes()


def test_the_zero_block_input_is_its_seeded_draw():
    X = io.load_matrix_market(INPUTS["zero-block"])
    assert np.array_equal(X.to_dense(), zero_block_matrix().to_dense())


if __name__ == "__main__":
    FITS.mkdir(exist_ok=True)
    io.save_matrix_market(INPUTS["zero-block"], zero_block_matrix())
    with tempfile.TemporaryDirectory() as scratch:
        for source in INPUTS:
            for method in METHODS:
                model, trace = golden_fit(source, method, Path(scratch))
                (FITS / f"{source}-{method}.json").write_bytes(model)
                (FITS / f"{source}-{method}.csv").write_bytes(trace)
    print(f"wrote {FITS}", file=sys.stderr)
