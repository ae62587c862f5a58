"""The one reader of input files: UTF-8, lines split at ``"\\n"``, errors as ``file[:line]``."""

from __future__ import annotations

import codecs
import json
import math
from pathlib import Path
from typing import Iterator


class InputError(ValueError):
    """An input file is missing, unreadable or malformed."""

    def __init__(self, path, message: str, lineno: int | None = None) -> None:
        super().__init__(f"{path}:{lineno}: {message}" if lineno else f"{path}: {message}")


def read_file(path, error: type[InputError] = InputError) -> str:
    """The file's text; a missing file or an undecodable byte raises *error*.

    A leading UTF-8 byte-order mark is no text: it is dropped.
    """
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except FileNotFoundError:
        raise error(path, "not found") from None
    except OSError as exc:
        raise error(path, f"cannot read: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(path, f"byte 0x{data[exc.start]:02x} is not UTF-8", lineno) from None


def read_lines(path, error: type[InputError] = InputError) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` per line, without its ``"\\n"`` or ``"\\r\\n"`` line end."""
    lines = read_file(path, error).replace("\r\n", "\n").split("\n")
    return enumerate(lines[:-1] if lines[-1] == "" else lines, 1)


def read_keyed(path, parse, bad: str) -> dict:
    """``{subject: value}`` of the non-blank lines *parse* maps to a pair (None skips one).

    A line *parse* fails on reads ``<bad>: <reason>``; a second line for a subject is an error.
    """
    records: dict = {}
    for lineno, line in read_lines(path):
        try:
            record = parse(line) if line.strip() else None
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(path, f"{bad}: {exc}", lineno) from exc
        if record is not None:
            subject, value = record
            if subject in records:
                raise InputError(path, f"duplicate subject {subject!r}", lineno)
            records[subject] = value
    return records


def json_fields(line: str, *keys: str) -> tuple:
    """The values of *keys* in the JSON object on *line*.

    A line that is not JSON, not an object, or lacks a key raises a
    ``ValueError`` that says so.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    for key in keys:
        if key not in record:
            raise ValueError(f"missing key {key!r}")
    return tuple(record[key] for key in keys)


def finite_number(value, what: str) -> float:
    """A JSON number that is not a bool and is finite, as a float.

    ``json.loads`` reads the non-JSON literals ``NaN`` and ``Infinity`` as
    floats, so those are refused here too.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number
