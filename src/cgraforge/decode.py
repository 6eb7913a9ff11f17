"""One strict reader for every JSON input: run configs, selection scripts,
cost coefficients, architecture files and kernel files; and the JSON form
of a config record.

`Fields` wraps one JSON object. It rejects a non-object and any key outside
the allowed set up front; each typed read then rejects a missing required
key or a value of the wrong type. Numbers must be finite, and a boolean or
a quoted number is never read as one. Every rejection raises the caller's
error class, a subclass of InputError, with a machine-readable code:
BAD_TYPE, BAD_VALUE, UNKNOWN_FIELD, MISSING_FIELD or UNKNOWN_ENUM, and
SYNTAX or UNREADABLE for text that is not JSON or a file that cannot be
read. InputError is what the CLI maps to exit 2.

A config record is a dataclass whose fields say how each is read:
read_dataclass reads one from a JSON object by its fields' names,
annotations and defaults, and json_form writes one back, so a record's
keys and defaults are declared once, on the dataclass.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import math
import reprlib
import sys
from contextlib import contextmanager
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, TypeVar

E = TypeVar("E", bound=Enum)

#: Default of a typed read whose key must be present.
REQUIRED = object()


class InputError(Exception):
    """Malformed input (a file, a config, or a value in either), with a
    machine-readable code. Every error class of bad input derives from it."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@contextmanager
def about(what: str):
    """Name the input behind an InputError raised inside: its message gets
    `what: ` in front, unless it is read_text's, which names the file."""
    try:
        yield
    except InputError as e:
        if e.code != "UNREADABLE":
            e.args = (f"{what}: {e}",)
        raise


def read_text(path: str | Path, error: type[InputError] = InputError) -> str:
    """The UTF-8 text of a file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise error(code="UNREADABLE", message=f"cannot read {path}: {e}") from None


@lru_cache(maxsize=None)  # the package's few files, each read once per process
def package_text(package: str, name: str) -> str:
    """The UTF-8 text of a data file shipped in `package`."""
    return resources.files(package).joinpath(name).read_text("utf-8")


def loads(text: str, error: type[InputError] = InputError):
    """json.loads; text it cannot decode (bad syntax, an integer too long
    for int(), nesting too deep) raises `error` with code SYNTAX."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(code="SYNTAX", message=f"invalid JSON: {e}") from None


def member(cls: type[E], token: object, error: type[InputError], name: str) -> E:
    """The member of `cls` that `token` names, read case-insensitively and
    with '-' for '_'."""
    if not isinstance(token, str):
        raise error(code="BAD_TYPE", message=f"{name} must be a string, got {reprlib.repr(token)}")
    try:
        return cls[token.strip().upper().replace("-", "_")]
    except KeyError:
        known = ", ".join(cls.__members__)
        raise error(code="UNKNOWN_ENUM", message=f"{name} must be one of {known}, got {reprlib.repr(token)}") from None


def _finite(val: int | float) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


class Fields:
    """One JSON object, read one typed field at a time.

    `where` names the object in messages (a field of it reads as
    "where.key"); the top level of a file has none. A read with a default
    returns it, unchecked, for an absent key, and a default of None also
    stands for an explicit null.
    """

    def __init__(self, data: object, error: type[InputError], allowed: Iterable[str], where: str = ""):
        self.error = error
        self.where = where
        if not isinstance(data, dict):
            self._fail("BAD_TYPE", f"{where or 'the input'} must be an object, got {reprlib.repr(data)}")
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            inside = f" in {where}" if where else ""
            self._fail("UNKNOWN_FIELD", f"unknown field(s){inside}: {', '.join(unknown)}")
        self.data = data

    def _fail(self, code: str, message: str):
        raise self.error(code=code, message=message)

    def _read(self, key: str, default, check):
        """check(value, name) of the value at `key`, or the default."""
        if key not in self.data or (default is None and self.data[key] is None):
            if default is REQUIRED:
                self._fail("MISSING_FIELD", f"missing field {self._name(key)}")
            return default
        return check(self.data[key], self._name(key))

    def _name(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def _typed(self, ok: bool, val, name: str, what: str):
        if not ok:
            self._fail("BAD_TYPE", f"{name} must be {what}, got {reprlib.repr(val)}")
        return val

    def integer(self, key: str, default=REQUIRED) -> int:
        """An int that is not a bool."""
        return self._read(
            key, default, lambda v, n: self._typed(type(v) is not bool and isinstance(v, int), v, n, "an integer")
        )

    def number(self, key: str, default=REQUIRED, positive: bool = False) -> int | float:
        """A finite int or float, not a bool, as JSON typed it; > 0 when
        `positive`."""

        def check(val, name):
            self._typed(type(val) is not bool and isinstance(val, (int, float)), val, name, "a number")
            if not _finite(val):
                self._fail("BAD_VALUE", f"{name} must be finite, got {reprlib.repr(val)}")
            if positive and val <= 0:
                self._fail("BAD_VALUE", f"{name} must be > 0, got {val!r}")
            return val

        return self._read(key, default, check)

    def string(self, key: str, default=REQUIRED) -> str:
        return self._read(key, default, lambda v, n: self._typed(isinstance(v, str), v, n, "a string"))

    def enum(self, key: str, cls: type[E], default=REQUIRED) -> E:
        """The member of `cls` named by a string token."""
        return self._read(key, default, lambda v, n: member(cls, v, self.error, n))

    def array(self, key: str) -> list:
        return self._read(key, REQUIRED, lambda v, n: self._typed(isinstance(v, list), v, n, "a list"))

    def enums(self, key: str, cls: type[E]) -> list[E]:
        """A list of string tokens, each naming a member of `cls`."""
        name = self._name(key)
        return [member(cls, v, self.error, f"{name}[{i}]") for i, v in enumerate(self.array(key))]

    def object(self, key: str, allowed: Iterable[str], default=REQUIRED) -> "Fields":
        """A nested object; an absent key with a default reads the default."""
        return Fields(self._read(key, default, lambda v, n: v), self.error, allowed, self._name(key))

    def objects(self, key: str, allowed: Iterable[str]) -> list["Fields"]:
        """A list of objects with the same allowed keys."""
        name = self._name(key)
        return [Fields(v, self.error, allowed, f"{name}[{i}]") for i, v in enumerate(self.array(key))]


def field_names(cls) -> list[str]:
    """The field names of the dataclass `cls`: the keys its JSON object
    may hold."""
    return [x.name for x in dataclasses.fields(cls)]


@lru_cache(maxsize=None)  # one per config record class
def _field_plan(cls) -> tuple[tuple[str, object, object, object], ...]:
    """(name, declared default or REQUIRED, reader, writer) of each field of
    the dataclass `cls`, json_form writing a value but None through the
    writer if there is one. A config record's module postpones its
    annotations (PEP 563), so each is the text of a name, or of names joined
    by " | ", and each name is looked up in the record's module or the
    builtins: typing.get_type_hints would compile every annotation, at about
    ten times the cost of a whole config read, in every process that reads one."""
    scope = vars(sys.modules[cls.__module__])
    plan = []
    for x in dataclasses.fields(cls):
        types = tuple(scope[n] if n in scope else getattr(builtins, n) for n in x.type.split(" | ") if n != "None")
        default = REQUIRED if x.default is dataclasses.MISSING else x.default
        t = types[0] if len(types) == 1 else types
        enum = isinstance(t, type) and issubclass(t, Enum)
        write = json_form if dataclasses.is_dataclass(t) else (lambda member: member.name) if enum else None
        plan.append((x.name, default, _reader(t), write))
    return tuple(plan)


def _reader(t):
    """How a field annotated `t`, with None left out of a union, is read:
    a function of the Fields, the key and the default."""
    if dataclasses.is_dataclass(t):
        return lambda f, key, default: read_dataclass(
            t, f.data.get(key, {}), f.error, f._name(key), None if default is REQUIRED else default
        )
    if isinstance(t, type) and issubclass(t, Enum):
        return lambda f, key, default: f.enum(key, t, default)
    if t is float:
        return _read_float
    return {int: Fields.integer, str: Fields.string, (int, float): Fields.number}[t]


def _read_float(f: Fields, key: str, default) -> float | None:
    number = f.number(key, default)
    return number if number is None else float(number)


def read_dataclass(cls, data: object, error: type[InputError], where: str = "", base=None):
    """An instance of the dataclass `cls` from a JSON object, strict about
    unknown keys. Each field is read by its annotation: `int` and `str` as
    Fields reads them, `float` as a float, `int | float` as the number JSON
    typed, an enum by member name, and a dataclass from its own nested
    object. An absent field takes its value in `base`, an instance of
    `cls`, or else its declared default; None in a union only lets an
    explicit null through."""
    f = Fields(data, error, field_names(cls), where)
    values = {}
    for name, default, read, _ in _field_plan(cls):
        values[name] = read(f, name, default if base is None else getattr(base, name))
    return cls(**values)


def json_form(record) -> dict:
    """The JSON form of a config record, which read_dataclass reads back:
    asdict's, with each enum member as its name, but without its deep copy."""
    form = {}
    for name, _, _, write in _field_plan(type(record)):
        value = getattr(record, name)
        form[name] = value if write is None or value is None else write(value)
    return form
