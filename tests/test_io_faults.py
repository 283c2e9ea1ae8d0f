"""The one file boundary, ``errors.opened``.

Each file the CLI reads or writes meets three faults: the open fails, a read
fails after a good open, and its bytes are not UTF-8. Each gives what the
exit-status contract names, never a traceback: ``detect`` an ``error`` row
for a trace, a skipped and counted file under a scanned directory (or, when
a read fails after some of its chunks, a file named as read in part), one
``error:`` line with exit 1 for a profile, a report and the writers, and
exit 2 for ``--config``. The open and read faults are injected at
``entwatch.errors.open``, the package's one call of ``open``; the devices
``/proc/self/mem`` (a read gives EIO) and ``/dev/full`` (a write gives
ENOSPC) give the same faults for real where they exist. Last, checks over
the source keep that boundary the only one, and every error type raised.
"""

import ast
import builtins
import csv
import errno
import io
import os
from collections import Counter
from pathlib import Path

import pytest

import entwatch
import entwatch.errors
from entwatch.cli import main
from entwatch.simulate import ScenarioSpec, simulate_scenario
from entwatch.traces import scan_directory, write_trace

FAULTS = ("open", "read", "bytes")
# A word of the message each fault gives, lowercased.
FAULT_WORDS = {"open": "permission denied", "read": "input/output error", "bytes": "utf-8"}
NOT_UTF8 = b"\xff\xfe{}\n"
PROC_MEM = "/proc/self/mem"
DEV_FULL = "/dev/full"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two benign traces, a profile fitted on them, an empty config, a
    report.csv and a directory of three files."""
    root = tmp_path_factory.mktemp("faults")
    traces = []
    for seed in (6300, 6301):
        path = root / f"ben{seed}.jsonl"
        write_trace(simulate_scenario(ScenarioSpec("benign_edit", seed=seed, duration=40.0)), path)
        traces.append(str(path))
    assert main(["profile", *traces, "--out", str(root / "base.json"), "--frozen-clock"]) == 0
    assert main(["detect", traces[0], "--baseline", str(root / "base.json"),
                 "--out", str(root / "run"), "--frozen-clock"]) == 0
    (root / "config.json").write_text("{}\n")
    docs = root / "docs"
    docs.mkdir()
    for name in ("a.txt", "b.txt", "c.txt"):
        (docs / name).write_bytes(name.encode() * 2000)
    return root


class FailingRaw(io.RawIOBase):
    """An open file whose reads fail with EIO, as a faulty disk or pipe's do:
    every read, or every one after the first ``good_reads``, which read ``data``."""

    def __init__(self, data: bytes = b"", good_reads: int = 0):
        super().__init__()
        self._data = io.BytesIO(data)
        self._good_reads = good_reads

    def readable(self):
        return True

    def readinto(self, buffer):
        if self._good_reads:
            self._good_reads -= 1
            return self._data.readinto(buffer)
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def faulty(target, source: Path, fault: str, monkeypatch) -> str:
    """``target``, a copy of ``source`` that meets ``fault``: not UTF-8 in its
    bytes, or an open or a read that fails at the boundary; ``partway``, a
    fault outside FAULTS, fails every read after the first."""
    target.write_bytes(NOT_UTF8 if fault == "bytes" else source.read_bytes())
    target = str(target)

    def faulty_open(path, mode="r", **kwargs):
        if str(path) != target or fault == "bytes":
            return open(path, mode, **kwargs)
        if fault == "open":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
        if fault == "partway":  # unbuffered, so each read of a chunk is one raw read
            return FailingRaw(source.read_bytes(), good_reads=1)
        fh = io.BufferedReader(FailingRaw())
        return fh if "b" in mode else io.TextIOWrapper(fh, encoding=kwargs.get("encoding"),
                                                        newline=kwargs.get("newline"))

    monkeypatch.setattr(entwatch.errors, "open", faulty_open, raising=False)
    return target


def one_line(err: str, start: str, words: str) -> str:
    """The one line of ``err``, which starts with ``start`` and holds ``words``."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), err
    assert words in lines[0].lower(), err
    return lines[0]


def report_rows(out) -> dict[str, str]:
    with open(Path(out) / "report.csv", newline="", encoding="utf-8") as fh:
        return {row["trace"]: row["verdict"] for row in csv.DictReader(fh)}


def assert_error_row_and_others_reported(out, bad: str, good: str):
    rows = report_rows(out)
    assert rows[bad] == "error"
    assert rows[good] != "error"


@pytest.mark.parametrize("fault", FAULTS)
def test_detect_trace_fault_is_an_error_row(corpus, tmp_path, monkeypatch, capsys, fault):
    good = str(corpus / "ben6301.jsonl")
    bad = faulty(tmp_path / "bad.jsonl", corpus / "ben6300.jsonl", fault, monkeypatch)
    out = tmp_path / "run"
    assert main(["detect", bad, good, "--baseline", str(corpus / "base.json"),
                 "--out", str(out)]) == 1
    one_line(capsys.readouterr().err, f"detect: input {bad} failed:", FAULT_WORDS[fault])
    assert_error_row_and_others_reported(out, bad, good)


@pytest.mark.parametrize("fault", FAULTS)
def test_profile_trace_fault_is_one_error_line(corpus, tmp_path, monkeypatch, capsys, fault):
    bad = faulty(tmp_path / "bad.jsonl", corpus / "ben6300.jsonl", fault, monkeypatch)
    out = tmp_path / "p.json"
    assert main(["profile", bad, "--out", str(out)]) == 1
    line = one_line(capsys.readouterr().err, "error:", FAULT_WORDS[fault])
    assert bad in line
    assert not out.exists()


# test_cli.py's test_unreadable_files_are_reported_after_their_input is the open fault.
@pytest.mark.parametrize("command", ["profile", "detect"])
@pytest.mark.parametrize("fault", ["read", "bytes"])
def test_directory_file_fault_is_skipped_and_counted(corpus, tmp_path, monkeypatch, capsys,
                                                      command, fault):
    docs = tmp_path / "docs"
    docs.mkdir()
    for name in ("a.txt", "c.txt"):
        (docs / name).write_bytes((corpus / "docs" / name).read_bytes())
    faulty(docs / "b.txt", corpus / "docs" / "b.txt", fault, monkeypatch)
    args = ["--out", str(tmp_path / "out"), "--chunk-bytes", "64"]
    if command == "detect":
        args += ["--baseline", str(corpus / "base.json")]
    assert main([command, str(docs), *args]) == 0
    err = capsys.readouterr().err
    # A scanned file is bytes, never decoded, so bytes that are not UTF-8 are read.
    assert err == ("" if fault == "bytes" else
                   f"{command}: skipped 1 unreadable files under {docs}\n")


def docs_read_partway(corpus, tmp_path, monkeypatch) -> Path:
    """A copy of the corpus's ``docs`` whose ``b.txt`` meets the ``partway`` fault."""
    docs = tmp_path / "docs"
    docs.mkdir()
    for name in ("a.txt", "c.txt"):
        (docs / name).write_bytes((corpus / "docs" / name).read_bytes())
    faulty(docs / "b.txt", corpus / "docs" / "b.txt", "partway", monkeypatch)
    return docs


def test_directory_file_read_in_part_is_listed_once(corpus, tmp_path, monkeypatch):
    docs = docs_read_partway(corpus, tmp_path, monkeypatch)
    records, faults = scan_directory(docs, chunk_bytes=64)
    per_file = Counter(Path(r.source_path).name for r in records)
    assert per_file == {"a.txt": 10000 // 64 + 1, "b.txt": 1, "c.txt": 10000 // 64 + 1}
    assert (faults.unreadable, faults.partial) == ([], [str(docs / "b.txt")])


@pytest.mark.parametrize("command", ["profile", "detect"])
def test_directory_file_read_in_part_is_named(corpus, tmp_path, monkeypatch, capsys, command):
    docs = docs_read_partway(corpus, tmp_path, monkeypatch)
    args = ["--out", str(tmp_path / "out"), "--chunk-bytes", "64"]
    if command == "detect":
        args += ["--baseline", str(corpus / "base.json")]
    assert main([command, str(docs), *args]) == 0
    assert capsys.readouterr().err == f"{command}: read in part under {docs}: {docs / 'b.txt'}\n"


@pytest.mark.parametrize("fault", FAULTS)
def test_baseline_fault_is_one_error_line(corpus, tmp_path, monkeypatch, capsys, fault):
    bad = faulty(tmp_path / "bad.json", corpus / "base.json", fault, monkeypatch)
    assert main(["detect", str(corpus / "ben6300.jsonl"), "--baseline", bad,
                 "--out", str(tmp_path / "run")]) == 1
    assert bad in one_line(capsys.readouterr().err, "error:", FAULT_WORDS[fault])


@pytest.mark.parametrize("fault", FAULTS)
def test_config_fault_is_a_usage_error(corpus, tmp_path, monkeypatch, capsys, fault):
    bad = faulty(tmp_path / "bad.json", corpus / "config.json", fault, monkeypatch)
    assert main(["detect", str(corpus / "ben6300.jsonl"), "--config", bad,
                 "--baseline", str(corpus / "base.json"), "--out", str(tmp_path / "run")]) == 2
    assert bad in one_line(capsys.readouterr().err, "error:", FAULT_WORDS[fault])


@pytest.mark.parametrize("fault", FAULTS)
def test_report_csv_fault_is_one_error_line(corpus, tmp_path, monkeypatch, capsys, fault):
    bad = faulty(tmp_path / "report.csv", corpus / "run" / "report.csv", fault, monkeypatch)
    assert main(["report", bad]) == 1
    assert bad in one_line(capsys.readouterr().err, "error:", FAULT_WORDS[fault])


needs_proc_mem = pytest.mark.skipif(not os.path.exists(PROC_MEM), reason=f"no {PROC_MEM}")
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL}")
EIO_WORDS = FAULT_WORDS["read"]
ENOSPC_WORDS = "no space left on device"


@needs_proc_mem
def test_proc_mem_trace_is_an_error_row_in_detect(corpus, tmp_path, capsys):
    good = str(corpus / "ben6300.jsonl")
    out = tmp_path / "run"
    assert main(["detect", PROC_MEM, good, "--baseline", str(corpus / "base.json"),
                 "--out", str(out)]) == 1
    one_line(capsys.readouterr().err, f"detect: input {PROC_MEM} failed:", EIO_WORDS)
    assert_error_row_and_others_reported(out, PROC_MEM, good)


@needs_proc_mem
@pytest.mark.parametrize("argv, status", [
    (["profile", PROC_MEM, "--out", "p.json"], 1),
    (["report", PROC_MEM], 1),
    (["detect", "{trace}", "--baseline", PROC_MEM, "--out", "run"], 1),
    (["detect", "{trace}", "--config", PROC_MEM, "--baseline", "{profile}", "--out", "run"], 2),
], ids=["profile", "report", "baseline", "config"])
def test_proc_mem_read_is_one_error_line(corpus, tmp_path, monkeypatch, capsys, argv, status):
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(trace=corpus / "ben6300.jsonl", profile=corpus / "base.json")
            for arg in argv]
    assert main(argv) == status
    assert PROC_MEM in one_line(capsys.readouterr().err, "error:", EIO_WORDS)


@needs_dev_full
def test_dev_full_trace_writer_is_one_error_line(tmp_path, capsys):
    assert main(["simulate", "--kind", "benign_edit", "--seed", "1", "--duration", "10",
                 "--out", DEV_FULL]) == 1
    assert DEV_FULL in one_line(capsys.readouterr().err, "error:", ENOSPC_WORDS)


@needs_dev_full
def test_dev_full_profile_writer_is_one_error_line(corpus, capsys):
    assert main(["profile", str(corpus / "ben6300.jsonl"), "--out", DEV_FULL]) == 1
    assert DEV_FULL in one_line(capsys.readouterr().err, "error:", ENOSPC_WORDS)


@needs_dev_full
def test_dev_full_report_writer_is_one_error_line(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.csv").symlink_to(DEV_FULL)
    assert main(["detect", str(corpus / "ben6300.jsonl"), "--baseline", str(corpus / "base.json"),
                 "--out", str(out)]) == 1
    assert "report.csv" in one_line(capsys.readouterr().err, "error:", ENOSPC_WORDS)


SRC = Path(entwatch.__file__).resolve().parent
# The allowed sites, as (module, enclosing function); adding one is an edit here.
OPEN_SITES = [("errors", "opened")]
OSERROR_SITES = [("cli", "_make_out_dir"),  # wraps os.makedirs, which opens no file
                 ("errors", "opened")]
# Calls that open a file: the builtin (``io.open`` is the same function), and
# pathlib's methods that open one themselves.
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
# The builtin names whose ``except`` catches an OSError: its subclasses and aliases, and its bases.
OSERROR_CATCHERS = {name for name, value in vars(builtins).items() if isinstance(value, type)
                    and (issubclass(value, OSError) or issubclass(OSError, value))}


def found_sites(matches) -> list[tuple[str, str]]:
    """(module, enclosing function) of each node of the package's source
    that ``matches``; "<module>" outside any function."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, function):
            if matches(node):
                sites.append((path.stem, function))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, function)
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def opens_a_file(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr in OPENERS


def catches_oserror(node) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:  # a bare except
        return True
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(t, ast.Name) and t.id in OSERROR_CATCHERS for t in types)


def test_open_is_called_only_in_errors_opened():
    assert found_sites(opens_a_file) == OPEN_SITES


def test_oserror_is_caught_only_at_the_allowed_sites():
    assert found_sites(catches_oserror) == OSERROR_SITES


def raised_names() -> set[str]:
    """The names the package's source raises: ``raise X`` and ``raise X(...)``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    # An EntwatchError is a failure of one CLI input or of a fit (see the
    # errors module); a type that nothing raises names no such failure.
    types = {name for name, value in vars(entwatch.errors).items()
             if isinstance(value, type) and issubclass(value, entwatch.errors.EntwatchError)
             and value is not entwatch.errors.EntwatchError}
    assert sorted(types - raised_names()) == []
