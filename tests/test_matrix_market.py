"""MatrixMarket input faults: one pinned message per fault, and seeded fuzzing of the CLI.

The messages in ``FAULTS`` are the loader's messages from before the
entry checks moved into ``TermDocMatrix.from_arrays``; they must stay
byte-identical, line numbers included.  The base file has comment and
blank lines between the entries, so a line number that counted entries
instead of lines would show.  A body with blank lines but no comment line
is read without the comment filter, and must report the same lines, with
every line break of ``str.splitlines``.
"""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.cli import main
from simplexnmf.errors import DataError, EntryError

HEADER = "%%MatrixMarket matrix coordinate real general\n% a comment\n"


def _mm(size="3 2 3", entry="2 1 1.5", extra=""):
    """A 3 x 2 matrix whose second entry, ``entry``, sits on line 7."""
    return HEADER + size + "\n1 1 2\n\n   % indented comment\n" + entry + "\n3 2 4\n" + extra


FAULTS = {
    "two fields": (_mm(entry="2 1"), "malformed entry at line 7"),
    "four fields": (_mm(entry="2 1 1.5 7"), "malformed entry at line 7"),
    "trailing comment": (_mm(entry="2 1 1.5 % note"), "malformed entry at line 7"),
    "index 1.5": (_mm(entry="1.5 1 1.5"), "malformed entry at line 7"),
    "index 1e0": (_mm(entry="1e0 1 1.5"), "malformed entry at line 7"),
    "value abc": (_mm(entry="2 1 abc"), "malformed entry at line 7"),
    "term index 0": (_mm(entry="0 1 1.5"), "index overflow at line 7: (0, 1) outside 3 x 2"),
    "doc index 0": (_mm(entry="2 0 1.5"), "index overflow at line 7: (2, 0) outside 3 x 2"),
    "term index n+1": (_mm(entry="4 1 1.5"), "index overflow at line 7: (4, 1) outside 3 x 2"),
    "doc index n+1": (_mm(entry="2 3 1.5"), "index overflow at line 7: (2, 3) outside 3 x 2"),
    "value nan": (_mm(entry="2 1 nan"), "non-finite count at line 7"),
    "value inf": (_mm(entry="2 1 inf"), "non-finite count at line 7"),
    "value -inf": (_mm(entry="2 1 -inf"), "negative count at line 7"),
    "value -1": (_mm(entry="2 1 -1"), "negative count at line 7"),
    "duplicate": (_mm(entry="3 2 1.5"), "duplicate entry (3, 2)"),
    "one fewer": (_mm(size="3 2 4"), "{path} declares 4 entries but contains 3"),
    "one more": (_mm(extra="1 2 5\n"), "{path} declares 3 entries but contains 4"),
    "size two fields": (_mm(size="3 2"), "malformed size line at line 3"),
    "size non-integer": (_mm(size="3 2 x"), "malformed size line at line 3"),
    "size four fields": (_mm(size="3 2 3 3"), "malformed size line at line 3"),
    "no size line": (HEADER + "\n% nothing after the comments\n", "missing size line in {path}"),
    # numbers Python's int() and float() read but the format has no place for
    "value 1_5": (_mm(entry="2 1 1_5"), "malformed entry at line 7"),
    "index Arabic-Indic 2": (_mm(entry="\u0662 1 1.5"), "malformed entry at line 7"),
    "value Arabic-Indic 3": (_mm(entry="2 1 \u0663"), "malformed entry at line 7"),
    "size 3_0": (_mm(size="3_0 2 3"), "malformed size line at line 3"),
    "size Arabic-Indic 3": (_mm(size="\u0663 2 3"), "malformed size line at line 3"),
    # non-ASCII text that numpy's integer parser alone would read ("1\u01ff" as 473)
    "index 1\u01ff": (_mm(entry="1\u01ff 1 1.5"), "malformed entry at line 7"),
    "no-break space": (_mm(entry="2\u00a01 1.5"), "malformed entry at line 7"),
}


@pytest.mark.parametrize("case", FAULTS)
def test_fault_message_is_pinned(tmp_path, case):
    text, message = FAULTS[case]
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as info:
        snf.load_matrix_market(path)
    assert str(info.value) == message.format(path=path)


def _without_body_comment(text):
    """``text`` with the comment among its entries made a line of blanks, so
    that no ``%`` follows the size line; every line keeps its number."""
    return text.replace("   % indented comment", " \t ")


# a fault of each kind that a body without comment lines (read as it is,
# blank lines left to numpy) must report as the body with one does
@pytest.mark.parametrize("case", [
    "two fields", "value abc", "value -1", "value nan", "term index n+1", "doc index 0", "duplicate",
    "one fewer", "one more", "index 1\u01ff", "no-break space",
])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x0c", "\u2028"])  # line breaks of str.splitlines
def test_a_body_without_comments_reports_the_same_fault_and_line(tmp_path, case, newline):
    text, message = FAULTS[case]
    plain = _without_body_comment(text)
    assert "%" not in plain.split("\n", 3)[3]
    path = tmp_path / "m.mtx"
    path.write_bytes(plain.replace("\n", newline).encode("utf-8"))
    with pytest.raises(DataError) as info:
        snf.load_matrix_market(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("text", [
    _mm(),
    _without_body_comment(_mm()),
    _mm().replace("% a comment", "% caf\u00e9, a comment that is not ASCII"),
    _mm().replace("% indented comment", "% caf\u00e9"),
    _without_body_comment(_mm()).replace(" \t ", "\u3000\u00a0"),  # blanks that are not ASCII
    _mm().replace("\n", "\r\n") + "\r\n\n",
])
def test_a_body_loads_whatever_its_comments_and_blanks(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("utf-8"))
    X = snf.load_matrix_market(path)
    assert np.array_equal(X.to_dense(), [[2.0, 0.0], [1.5, 0.0], [0.0, 4.0]])


def test_a_non_ascii_entry_after_a_header_comment_is_malformed(tmp_path):
    # the header holds a comment, the body none: the body text alone is checked for ASCII
    path = tmp_path / "m.mtx"
    path.write_text(_without_body_comment(_mm(entry="2 1 1.5\u00e9")), encoding="utf-8")
    with pytest.raises(DataError, match="^malformed entry at line 7$"):
        snf.load_matrix_market(path)


def test_base_file_loads_past_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_mm(), encoding="utf-8")
    X = snf.load_matrix_market(path)
    assert np.array_equal(X.to_dense(), [[2.0, 0.0], [1.5, 0.0], [0.0, 4.0]])


def test_empty_body_is_an_empty_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "3 2 0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = snf.load_matrix_market(path)
    assert (X.n_terms, X.n_docs, X.nnz) == (3, 2, 0)
    assert np.array_equal(X.to_dense(), np.zeros((3, 2)))


@pytest.mark.parametrize("body", ["\n", "\n \t\n\n", "% no entries\n\n"])
def test_a_body_of_blank_lines_is_an_empty_matrix(tmp_path, body):
    path = tmp_path / "m.mtx"
    path.write_text(HEADER + "3 2 0\n" + body, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = snf.load_matrix_market(path)
    assert (X.n_terms, X.n_docs, X.nnz) == (3, 2, 0)


def _column_file(path, entries):
    """A file of one document whose entry lines, on lines 4 on, are ``entries``."""
    n = len(entries)
    path.write_text(HEADER + f"{n} 1 {n}\n" + "".join(line + "\n" for line in entries), encoding="utf-8")


@pytest.mark.parametrize("n", [2**6, 2**10, 2**14])
def test_fault_search_is_logarithmic_in_the_lines(tmp_path, monkeypatch, n):
    # a fault on the last line, which a search line by line finds only after n calls
    calls = []
    numbers = snf.io._mm_numbers
    monkeypatch.setattr(snf.io, "_mm_numbers", lambda lines, dtype: calls.append(len(lines)) or numbers(lines, dtype))
    _column_file(tmp_path / "m.mtx", [f"{v} 1 1" for v in range(1, n)] + [f"{n} 1 x"])
    with pytest.raises(DataError, match=f"^malformed entry at line {n + 3}$"):
        snf.load_matrix_market(tmp_path / "m.mtx")
    # the size line, the whole body, then one call per halving, which read n - 1 lines in all
    assert len(calls) <= math.log2(n) + 2
    assert sum(calls) <= 2 * n


@pytest.mark.parametrize("first", [0, 1, 5, 31, 62])
def test_fault_search_reports_the_first_malformed_line(tmp_path, first):
    entries = [f"{v} 1 1" for v in range(1, 64)]
    entries[first] = f"{first + 1} 1"
    if first < 62:
        entries[62] = "63 1 x"
    _column_file(tmp_path / "m.mtx", entries)
    with pytest.raises(DataError, match=f"^malformed entry at line {first + 4}$"):
        snf.load_matrix_market(tmp_path / "m.mtx")


def test_entry_fault_keeps_its_position(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_mm(entry="2 1 -1"), encoding="utf-8")
    with pytest.raises(EntryError) as info:
        snf.load_matrix_market(path)
    assert (info.value.entry, info.value.fault) == (1, "negative")


def test_first_repeated_line_is_the_duplicate_reported(tmp_path):
    path = tmp_path / "m.mtx"
    # (3, 2) repeats first in file order, though (1, 1) sorts first
    path.write_text(_mm(size="3 2 5", extra="3 2 1\n1 1 1\n"), encoding="utf-8")
    with pytest.raises(DataError, match=r"^duplicate entry \(3, 2\)$"):
        snf.load_matrix_market(path)


def test_index_beyond_64_bits_is_malformed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_mm(entry="99999999999999999999 1 1.5"), encoding="utf-8")
    with pytest.raises(DataError, match="^malformed entry at line 7$"):
        snf.load_matrix_market(path)


@pytest.mark.parametrize("size, entry, message", [
    ("3 2 3", "1.5 1 1.5", "malformed entry at line 7"),
    ("3 2 3", "2.9 1 1.5", "malformed entry at line 7"),
    ("3 2 3", "nan 1 1.5", "malformed entry at line 7"),
    ("3.5 2 3", "2 1 1.5", "malformed size line at line 3"),
    ("1e3 2 3", "2 1 1.5", "malformed size line at line 3"),
])
def test_float_in_integer_field_is_malformed_with_default_warnings(tmp_path, size, entry, message):
    # outside a test run numpy's DeprecationWarning is hidden, so a numpy
    # that falls back to reading an integer through a float must not load it
    path = tmp_path / "m.mtx"
    path.write_text(_mm(size=size, entry=entry), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        with pytest.raises(DataError) as info:
            snf.load_matrix_market(path)
    assert str(info.value) == message


def test_numpy_float_fallback_for_integers_is_malformed(tmp_path, monkeypatch):
    # emulates the numpy releases whose loadtxt reads an integer field that
    # fails to parse through a float, truncates it, and only warns
    loadtxt = np.loadtxt

    def fallback(lines, dtype, **kwargs):
        if any(line.startswith("1.5 ") for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([line.replace("1.5 1", "1 1") for line in lines], dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", fallback)
    path = tmp_path / "m.mtx"
    path.write_text(_mm(entry="1.5 1 1.5"), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        with pytest.raises(DataError, match="^malformed entry at line 7$"):
            snf.load_matrix_market(path)


@pytest.mark.parametrize("loader", [snf.load_matrix_market, snf.load_vocabulary])
def test_non_utf8_file_is_data_error(tmp_path, loader):
    path = tmp_path / "bad"
    path.write_bytes(HEADER.encode() + b"1 1 1\n1 1 \xff\n")
    with pytest.raises(DataError, match="not UTF-8 text"):
        loader(path)


# ---------------------------------------------------------------------------
# fuzzing: seeded mutations of a small valid file through `fit` and `eval`

# every line has a field of two or more characters to split
BASE = [
    "%%MatrixMarket matrix coordinate real general",
    "12 10 14",
    "1 1 2.5", "2 1 10", "12 1 3.5", "3 2 11", "4 3 2.0", "5 4 12", "6 5 4.5",
    "7 6 13", "8 7 2.5", "9 8 14", "10 9 3.0", "11 10 15", "12 10 2.5", "1 10 11",
]
BAD_INDEX = ["0", "-1", "13", "1.5", "1e0", "abc", "nan", "99999999999999999999"]
BAD_VALUE = ["nan", "inf", "-inf", "-1", "-0.5", "abc", "1e999", "1,5"]


def _mutate(seed: int) -> bytes:
    """One seeded fault; every mutation leaves the file invalid."""
    rng = random.Random(seed)
    lines = list(BASE)
    kind = ("drop", "split", "repeat", "number", "delete", "duplicate", "truncate", "byte")[seed % 8]
    at = rng.randrange(len(lines))
    fields = lines[at].split()
    f = rng.randrange(len(fields))
    if kind == "drop":
        del fields[f]
    elif kind == "split":
        f = rng.choice([i for i, field in enumerate(fields) if len(field) > 1])
        cut = rng.randrange(1, len(fields[f]))
        fields[f:f + 1] = [fields[f][:cut], fields[f][cut:]]
    elif kind == "repeat":
        fields.insert(f, fields[f])
    elif kind == "number":
        at = rng.randrange(2, len(lines))
        fields = lines[at].split()
        f = rng.randrange(3)
        fields[f] = rng.choice(BAD_VALUE if f == 2 else BAD_INDEX)
    if kind in ("drop", "split", "repeat", "number"):
        lines[at] = " ".join(fields)
    elif kind == "delete":
        del lines[at]
    elif kind == "duplicate":  # a repeated header would read as a comment
        at = rng.randrange(1, len(lines))
        lines.insert(at, lines[at])
    text = ("\n".join(lines) + "\n").encode()
    if kind == "truncate":  # somewhere before the last line, which is then lost
        return text[: rng.randrange(len(text) - len(lines[-1]) - 1)]
    if kind == "byte":
        cut = rng.randrange(len(text) + 1)
        return text[:cut] + b"\xff" + text[cut:]
    return text


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "base.mtx").write_text("\n".join(BASE) + "\n", encoding="utf-8")
    assert main([
        "fit", "--input", str(root / "base.mtx"), "--method", "mu", "--topics", "2",
        "--max-iter", "5", "--output", str(root / "model.json"),
    ]) == 0
    return root


@pytest.mark.parametrize("seed", range(48))
def test_mutated_file_is_a_data_error_in_fit_and_eval(fitted, tmp_path, capsys, seed):
    path = tmp_path / "m.mtx"
    path.write_bytes(_mutate(seed))
    capsys.readouterr()
    for argv in (
        ["fit", "--input", str(path), "--method", "mu", "--topics", "2", "--max-iter", "5",
         "--output", str(tmp_path / "out.json")],
        ["eval", "--model", str(fitted / "model.json"), "--input", str(path)],
    ):
        assert main(argv) in (2, 3)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(("data error: ", "numerical failure: ")), err


def test_non_utf8_matrix_through_the_module_entry_point(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(_mutate(7))
    src = str(Path(snf.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "simplexnmf.cli", "fit", "--input", str(path), "--method", "mu",
         "--topics", "2", "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))),
    )
    assert run.returncode == 2
    assert run.stderr.startswith("data error: ") and "Traceback" not in run.stderr
