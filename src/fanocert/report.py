"""JSON report emission.

The report schema is versioned and uses integers and strings only.  One
recursive writer walks the report once and emits exactly the bytes of
``json.dumps(data, indent=2)``; on the way it refuses, with the JSON path of
the offending node, a float, a dict key that is not a ``str``, or a value of
any other type.  Field order is fixed by construction, which together with
the deterministic case order makes consecutive runs byte-identical.

The writer has one dispatch, on the exact type: a report holds only
``dict``, ``list``, ``tuple``, ``str``, ``int``, ``True``, ``False`` and
``None``.  A subclass of any of them, an ``IntEnum`` or a named tuple say,
is refused like any other type.  A list or tuple whose items are all
exactly ``str`` or ``int`` is joined in one step, and a dict value of those
two types is written next to its key, so leaves cost no call.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .catalog import Report

REPORT_VERSION = 1


class ReportValueError(TypeError):
    """A value the integer-only report cannot hold reached the serializer.

    ``steps`` is its JSON path, innermost step first, gathered only as the
    error unwinds through the writer.
    """

    def __init__(self, what: str, rule: str = ""):
        super().__init__(what, rule)
        self.steps: list[str] = []

    def __str__(self) -> str:
        what, rule = self.args
        return f"{what} at ${''.join(reversed(self.steps))}{rule}"


def _encode(node, indent: str, out: list) -> None:
    """Append the ``indent=2`` JSON text of ``node``, nested at ``indent``.

    A container writes its exact ``str`` and ``int`` items in place, so only
    nested containers and other values cost a call.  Each item of the
    item-by-item path is followed by a separator; the last one is then
    overwritten by the closing bracket.
    """
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        try:
            for key, value in node.items():
                if type(key) is not str:
                    raise ReportValueError(f"{type(key).__name__} key {key!r}",
                                           "; report keys are strings")
                kind = type(value)
                if kind is str:
                    out.append(f"{_quote(key)}: {_quote(value)}")
                elif kind is int:
                    out.append(f"{_quote(key)}: {int.__repr__(value)}")
                else:
                    out.append(_quote(key) + ": ")
                    _encode(value, inner, out)
                out.append(sep)
        except ReportValueError as exc:
            exc.steps.append(f".{key}")
            raise
        out[-1] = "\n" + indent + "}"
    elif kind is list or kind is tuple:
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        texts = []
        for item in node:
            kind = type(item)
            if kind is int:
                texts.append(int.__repr__(item))
            elif kind is str:
                texts.append(_quote(item))
            else:
                break
        else:
            out.append(f"[\n{inner}{sep.join(texts)}\n{indent}]")
            return
        out.append("[\n" + inner)
        try:
            for step, item in enumerate(node):
                _encode(item, inner, out)
                out.append(sep)
        except ReportValueError as exc:
            exc.steps.append(f"[{step}]")
            raise
        out[-1] = "\n" + indent + "]"
    # a str or int reaches here only as the root or as an item of a mixed list
    elif kind is str:
        out.append(_quote(node))
    elif kind is int:
        out.append(int.__repr__(node))
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif node is None:
        out.append("null")
    elif kind is float:
        raise ReportValueError("float", "; reports are integer-only")
    else:
        raise ReportValueError(f"unserializable value of type {kind}")


def report_to_dict(report: Report) -> dict:
    return {
        "version": REPORT_VERSION,
        "summary": report.summary,
        "certificates": [c.to_dict() for c in report.certificates],
    }


def report_to_json(report: Report) -> str:
    out: list[str] = []
    _encode(report_to_dict(report), "", out)
    out.append("\n")
    return "".join(out)


def write_report(report: Report, path: str) -> None:
    # serialize before opening, so a refused report leaves the file untouched
    payload = report_to_json(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
