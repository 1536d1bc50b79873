"""Key = value configuration files (one assignment per line, # comments),
read against a dataclass that declares each key's type and default, and the
number grammar that config values, command-line flags and the data file
readers share."""

import math
import typing
from typing import Literal, Tuple, Union

AutoOrPositive = Union[float, Literal["auto"]]  # 'auto' or a positive finite number
Floats = Tuple[float, ...]  # one finite number or a comma-separated list
FORMATS = ("csv", "binary-f64")  # the matrix file formats of load_matrix and save_matrix
LOSSES = ("l1", "frobenius_sq")  # the fidelity terms of SolverConfig.loss


class ConfigError(ValueError):
    """Raised for unparseable lines, unknown keys or bad values."""


def plain_number_text(text) -> bool:
    """False for str or bytes with a non-ASCII character, '_' or a separator
    0x1c-0x1f: Python's int and float read "1_0" as 10 and non-ASCII digits
    as digits; float refuses the separators, which numpy skips as whitespace."""
    refused = "_\x1c\x1d\x1e\x1f" if isinstance(text, str) else b"_\x1c\x1d\x1e\x1f"
    return text.isascii() and not any(c in text for c in refused)


def number_type(kind):
    """An argparse type that reads text in the number grammar as kind (int or
    float), named after kind for argparse's messages. The range is the caller's."""
    def read(text: str):
        if not plain_number_text(text):
            raise ValueError("expected a number in ASCII digits, without '_'")
        return kind(text)
    read.__name__ = kind.__name__
    return read


def _convert(kind, text: str):
    if type(None) in typing.get_args(kind):  # Optional[X] reads as X
        kind = Union[tuple(a for a in typing.get_args(kind) if a is not type(None))]
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    if kind is str:
        return text.strip("\"'")
    if kind == Floats:
        return tuple(_convert(float, item) for item in text.split(","))
    if kind == AutoOrPositive and text == "auto":
        return text
    value = number_type(int if kind is int else float)(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    if kind == AutoOrPositive and value <= 0:
        raise ValueError("expected 'auto' or a positive number")
    return value


def auto_or_positive(text: str):
    """'auto', or the positive finite number that text spells."""
    return _convert(AutoOrPositive, text)


def parse_keyvalue_text(text: str, schema, source: str = "<config>"):
    """An instance of the dataclass `schema` from 'key = value' lines (# comments).

    Each key names a field, once; its value is converted by the field's type;
    fields left out keep their defaults. Errors raise ConfigError naming source.
    """
    types = typing.get_type_hints(schema)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in types:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _convert(types[key], value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key} = {value}: {exc}") from None
    try:
        return schema(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_keyvalue(path, schema):
    """parse_keyvalue_text on a UTF-8 file; ConfigError names the file for other bytes."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_keyvalue_text(text, schema, source=str(path))
