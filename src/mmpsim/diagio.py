"""Diagnostics persistence: one CSV row per record.

The header is fixed; absent quantities are written as empty fields; values
carry 17 significant digits so a round-trip reproduces every float64
bit-exactly.  `mmpsim run` appends each row as it is recorded; on resume,
`truncate_diagnostics` first drops the rows past the checkpoint.
"""

from __future__ import annotations

from .checkpoint import write_then_rename
from .norms import RECORD_COLUMNS, DiagnosticsRecord

CSV_HEADER = ",".join(RECORD_COLUMNS)


def _format(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def format_record(record: DiagnosticsRecord) -> str:
    return ",".join(_format(getattr(record, name)) for name in RECORD_COLUMNS)


def write_diagnostics(records, path, append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="") as fh:
        if not append:
            fh.write(CSV_HEADER + "\n")
        for record in records:
            fh.write(format_record(record) + "\n")


def truncate_diagnostics(path, t_max: float) -> None:
    """Drop the rows with t > t_max from the diagnostics CSV at ``path``,
    and an unterminated last row left by a killed writer; a missing or
    empty file becomes a header-only one.  A row whose t does not parse is
    refused with a ValueError naming ``path`` and its line.  The file is
    rewritten through `checkpoint.write_then_rename`, so a failure leaves
    the old one."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        lines = []
    lines = lines or [CSV_HEADER + "\n"]
    if lines[0] != CSV_HEADER + "\n":
        raise ValueError(f"{path}: not a diagnostics CSV "
                         f"(expected header {CSV_HEADER!r})")
    kept = [lines[0]]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.endswith("\n"):
            continue
        try:
            t = float(line.split(",", 1)[0])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if t <= t_max:
            kept.append(line)
    with write_then_rename(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(kept)


def read_diagnostics(path) -> list[DiagnosticsRecord]:
    """The records of the diagnostics CSV at ``path``.  A row of the wrong
    width, a cell that does not parse and a row without t or l2_energy
    are refused with a ValueError naming ``path`` and its line."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a diagnostics CSV "
                         f"(expected header {CSV_HEADER!r})")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(RECORD_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected "
                             f"{len(RECORD_COLUMNS)} fields, got {len(cells)}")
        try:
            kwargs = {name: (None if cell == "" else float(cell))
                      for name, cell in zip(RECORD_COLUMNS, cells)}
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if kwargs["t"] is None or kwargs["l2_energy"] is None:
            raise ValueError(f"{path}:{lineno}: t and l2_energy are required")
        records.append(DiagnosticsRecord(**kwargs))
    return records
