"""Mutants that the test suite must kill, and the script that replays them.

Each row is a deliberate fault: a file, a text that occurs in it exactly
once, the text that replaces it, and the id of a test that must then fail.
Run from the root of the repository:

    python tests/mutants.py

Each row is applied to its own copy of ``src``, ``tests`` and
``pyproject.toml`` in a temporary directory, and the named test runs there
alone.  The script prints one line per row and exits 1 if a mutant
survives, if its text is not found exactly once, or if its test does not
run (pytest exits other than 1).  A change that records a mutation check
adds its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    test: str
    what: str


MUTANTS = [
    Mutant("src/simplexnmf/mu.py", "DESCENT_SLACK = 1e-9", "DESCENT_SLACK = 1e-3",
           "tests/test_mu.py::TestDescend::test_the_descent_gate_is_one_part_in_a_billion",
           "the monotonicity gate a millionfold weaker"),
    Mutant("src/simplexnmf/mu.py", "EPSILON_FLOOR = 1e-12", "EPSILON_FLOOR = 1e-11",
           "tests/test_mu.py::TestDescend::"
           "test_the_floor_leaves_a_vanishing_entry_at_one_trillionth_of_its_column_maximum",
           "a floor ten times higher"),
    Mutant("src/simplexnmf/mu.py", "_floor_columns(raw / (1.0 + lambda_sparsity), epsilon_floor)",
           "_floor_columns(raw * (1.0 / (1.0 + lambda_sparsity)), epsilon_floor)",
           "tests/test_golden_fits.py::test_a_fit_writes_the_golden_bytes[smoke-sparse-as-masked]",
           "sparse's H update through the reciprocal of 1 + lambda, ulps apart"),
    Mutant("src/simplexnmf/types.py", "pool.submit(contextvars.copy_context().run, run_range, a, b)",
           "pool.submit(run_range, a, b)",
           "tests/test_kernels.py::test_the_callers_errstate_holds_in_the_workers",
           "range workers without the caller's context, so without its np.errstate"),
    Mutant("src/simplexnmf/objectives.py", "eh *= b - a[:, None]  # (b - a) E[h]", "eh = eh * b - eh * a[:, None]",
           "tests/test_properties.py::test_the_gamma_bound_of_per_topic_rates_is_the_bound_of_their_broadcast",
           "gap_elbo's (b - a) E[h] as E[h] b - E[h] a"),
    Mutant("src/simplexnmf/types.py", "and a.max() < np.inf)", "and a.max() <= np.inf)",
           "tests/test_types.py::TestNonFiniteRejected::test_variational_state_refuses_each_bad_entry",
           "_finite_positive letting +inf through"),
    Mutant("src/simplexnmf/objectives.py", "or not _finite_positive(b):", "or np.any(b <= 0):",
           "tests/test_vi.py::TestExpectedLogH::test_a_non_finite_or_non_positive_entry_is_refused",
           "expected_log_h_gamma accepting a NaN or infinite rate"),
    Mutant("src/simplexnmf/types.py", "return bool(0 <= lambda_sparsity < np.inf)",
           "return bool(0 <= lambda_sparsity <= np.inf)",
           "tests/test_objectives.py::test_every_entry_point_refuses_a_negative_or_non_finite_lambda",
           "an infinite l1 weight accepted"),
    Mutant("src/simplexnmf/objectives.py", '(("candidate", (W, H)), ("anchor", (Wa, Ha)))',
           '(("candidate", (W, H)),)',
           "tests/test_objectives.py::test_joint_aux_refuses_a_negative_or_non_finite_anchor",
           "joint_aux reading an unchecked anchor"),
    Mutant("src/simplexnmf/types.py", "for a in range(0, rows.size, step):",
           "for a in range(0, rows.size - step + 1, step):",
           "tests/test_kernels.py::test_small_blocks_equal_the_serial_loop[3]",
           "the reconstruction leaving a range's last partial block out"),
    Mutant("src/simplexnmf/mu.py", '@np.errstate(all="ignore")\ndef fit(', "def fit(",
           "tests/test_mu.py::test_an_overflowing_fit_is_a_numerical_failure_not_a_warning[gap]",
           "the fit driver running with numpy's floating-point warnings on"),
    Mutant("src/simplexnmf/types.py", 'return "rate_a" in self.model_fields', 'return "alpha" in self.model_fields',
           "tests/test_cli.py::test_flag_the_method_ignores_is_usage_error[lda---rate-a]",
           "every method with Dirichlet priors taken to use Gamma rates"),
    Mutant("src/simplexnmf/io.py", "c if c < 128 and chr(c).isalnum() else 32",
           "c if c < 128 and (chr(c).isalnum() or c == 95) else 32",
           "tests/test_properties.py::test_tokenize_is_the_alphanumeric_runs_of_the_lowercased_text",
           "the ASCII byte table keeping the underscore (byte 95) inside tokens"),
    Mutant("src/simplexnmf/io.py", 're.compile(r"[^\\W_]+", re.UNICODE)', 're.compile(r"\\w+", re.UNICODE)',
           "tests/test_properties.py::test_tokenize_is_the_alphanumeric_runs_of_the_lowercased_text",
           "the tokenizer's regular expression keeping the underscore inside tokens"),
]


def replay(mutant: Mutant) -> str:
    """``"killed"``, ``"SURVIVED"`` or what kept the row from running, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"NOT APPLIED: the text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
                             cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "SURVIVED"
    return f"NOT RUN: pytest exited {run.returncode}\n{run.stdout}{run.stderr}"


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        outcome = replay(mutant)
        failures += outcome != "killed"
        print(f"{outcome.splitlines()[0]}: {mutant.what} ({mutant.path}; {mutant.test})")
        if "\n" in outcome:
            print(outcome.split("\n", 1)[1])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
