"""The JSON writer of every report: `dump_report` and the `tv.prefix` view.

`dump_report` writes the text of ``json.dumps(report, sort_keys=True,
indent=2, default=list)`` without json's encoder written in Python.
`PrefixRows` is a scenario report's `tv.prefix`, a read-only view of one row
per candidate over the filled records, which the writer reads record by
record.

The CLI imports this module for every subcommand, so it imports no other
module of the package: a process that prints a class group or a rank list
loads neither the scenario pipeline nor its fields and optimizer.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from operator import eq, index


def _record_rows(rec) -> Iterator[dict]:
    """A filled record's `tv.prefix` rows, one per candidate, built afresh."""
    w, kind, pinned = rec.weight_num, rec.kind, rec.pinned
    return ({"norm": norm, "prime": ell, "weight_num": w, "kind": kind, "pinned": pinned}
            for norm, ell in zip(rec.norms, rec.primes))


class PrefixRows(Sequence):
    """The report's `tv.prefix`: a read-only view of one row per candidate
    over the filled records, which `dump_report` writes record by record.

    Every access builds its rows afresh, so editing a row changes neither the
    view nor the report's text.  The view compares equal to any sequence of
    equal rows and has the repr of the list of its rows."""

    def __init__(self, records):
        self.records = tuple(records)
        self._ends = list(accumulate(len(rec.norms) for rec in self.records))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[dict]:
        return chain.from_iterable(map(_record_rows, self.records))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("prefix row index out of range")
        i %= n
        k = bisect_right(self._ends, i)
        return next(islice(_record_rows(self.records[k]), i - (self._ends[k - 1] if k else 0), None))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_ITEMS_PER_CALL = 512


def dump_report(report: dict, precision: int | None = None) -> str:
    """Deterministic JSON text; identical inputs give identical bytes.

    The text is byte-identical to ``json.dumps(report, sort_keys=True,
    indent=2, default=list)``, which runs json's encoder written in Python
    (``default=list`` reads a `PrefixRows` view as its rows).  This one
    writes the same pieces, with one function, ``_scalar_text``, for every
    scalar and every non-``str`` key, and two shortcuts: a list slice of
    exact scalars is encoded as one column (``_column_text``), and a
    `PrefixRows` view is written from its records (``_emit_prefix``).  Any
    other container is emitted child by child.  A value json cannot encode
    raises json's ``TypeError``.
    """
    if precision is not None:
        report = _round_floats(report, precision)
    out: list[str] = []
    _emit_json(report, 0, out)
    return "".join(out)


def _emit_json(obj, depth: int, out: list[str]) -> None:
    """Append the pieces of obj's text at depth to out.

    A long list is encoded _ITEMS_PER_CALL items at a time, so that its
    whole text is never held twice before the one join at the top.
    """
    if not isinstance(obj, (dict, list, tuple)):
        # PrefixRows is a Sequence ABC, whose isinstance runs in Python
        if type(obj) is PrefixRows:
            _emit_prefix(obj, depth, out)
        else:
            out.append(_scalar_text(obj))
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key if isinstance(key, str) else _scalar_text(key)), ": ")
            _emit_json(value, depth + 1, out)
            sep = "," + inner
        out += (outer, "}")
        return
    sep = "[" + inner
    for at in range(0, len(obj), _ITEMS_PER_CALL):
        items = obj[at : at + _ITEMS_PER_CALL]
        texts = _column_text(items)
        if texts is not None:
            out += (sep, ("," + inner).join(texts))
            sep = "," + inner
            continue
        for value in items:
            out.append(sep)
            _emit_json(value, depth + 1, out)
            sep = "," + inner
    out += (outer, "]")


def _emit_prefix(rows: PrefixRows, depth: int, out: list[str]) -> None:
    """Append the text of a `tv.prefix` view at depth to out, a record at a time.

    A row's text is head + norm + mid + prime + tail, where head, mid and
    tail hold the sorted keys and the record's kind, pinned and weight_num;
    those are encoded once per distinct frame.  A filled record's kind is a
    str, pinned a bool and weight_num a positive float, so frames that
    compare equal print alike.  The rows of a record are joined
    _ITEMS_PER_CALL at a time."""
    if not rows:
        out.append("[]")
        return
    inner = "\n" + "  " * (depth + 1)
    field = inner + "  "
    frames: dict[tuple, tuple[str, str, str, str]] = {}
    sep = "[" + inner
    for rec in rows.records:
        frame = (rec.kind, rec.pinned, rec.weight_num)
        pieces = frames.get(frame)
        if pieces is None:
            head = "{" + field + '"kind": ' + _scalar_text(rec.kind) + "," + field + '"norm": '
            mid = "," + field + '"pinned": ' + _scalar_text(rec.pinned) + "," + field + '"prime": '
            tail = "," + field + '"weight_num": ' + _scalar_text(rec.weight_num) + inner + "}"
            pieces = frames[frame] = (head, mid, tail, tail + "," + inner + head)
        head, mid, tail, glue = pieces
        norms, primes = rec.norms, rec.primes
        for at in range(0, len(norms), _ITEMS_PER_CALL):
            norm_texts = list(map(int.__repr__, norms[at : at + _ITEMS_PER_CALL]))
            prime_texts = norm_texts if primes is norms else map(int.__repr__, primes[at : at + _ITEMS_PER_CALL])
            out += (sep, head, glue.join(map(mid.join, zip(norm_texts, prime_texts))), tail)
            sep = "," + inner
    out += ("\n" + "  " * depth, "]")


def _column_text(column):
    """json's text for each value of a column of exact scalars; None if one is
    not of _SCALAR_TYPES."""
    kinds = set(map(type, column))
    if not kinds <= _SCALAR_TYPES:
        return None
    if kinds == {int}:
        return map(int.__repr__, column)
    distinct = set(column)
    # 1, True and 1.0 compare equal, as 0.0 and -0.0 do, yet each prints differently
    if len(kinds) > 1 or (kinds == {float} and 0.0 in distinct):
        return map(_scalar_text, column)
    return map({value: _scalar_text(value) for value in distinct}.__getitem__, column)


_LITERALS = {True: "true", False: "false", None: "null"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(value) -> str:
    """json's text for a scalar, subclasses of str, int and float included;
    TypeError for any other value, as json's encoder raises."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return round(obj, precision)
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, precision) for v in obj]
    if type(obj) is PrefixRows:
        # weight_num is the one value of a row that can be a float
        return PrefixRows(rec._replace(weight_num=_round_floats(rec.weight_num, precision)) for rec in obj.records)
    return obj
