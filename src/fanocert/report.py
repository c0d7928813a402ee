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

The layout of each nesting depth, its openers, separator and closing
brackets, is built once at import for depths 0 to 15 (a report's deepest
container sits at depth 7) and on demand past them.  Each item is written
behind its separator, or the opener if it is the first, and the closing
bracket is appended after the last one.
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


def _level(depth: int) -> tuple[str, str, str, str, str]:
    """The layout strings of a container nested at ``depth``.

    A dict's opener, a list's opener, the separator in front of every item
    but the first, a dict's closing bracket and a list's closing bracket.
    """
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    return "{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"


# Past the report schema's deepest depth, 7; deeper data takes _level.
_DEPTHS = 16
_LEVELS = tuple(_level(depth) for depth in range(_DEPTHS))


def _encode(node, depth: int, out: list) -> None:
    """Append the ``indent=2`` JSON text of ``node``, nested ``depth`` deep.

    Each depth's layout is laid out once, in ``_LEVELS``.  A container writes
    its exact ``str`` and ``int`` items in place, so only nested containers
    and other values cost a call.  Each item is written behind its
    separator, or behind the opener if it is the first, and the closing
    bracket follows the last item.
    """
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        lead, _, sep, close, _ = _LEVELS[depth] if depth < _DEPTHS else _level(depth)
        try:
            for key, value in node.items():
                if type(key) is not str:
                    raise ReportValueError(f"{type(key).__name__} key {key!r}",
                                           "; report keys are strings")
                kind = type(value)
                if kind is str:
                    out.append(f"{lead}{_quote(key)}: {_quote(value)}")
                elif kind is int:
                    out.append(f"{lead}{_quote(key)}: {int.__repr__(value)}")
                else:
                    out.append(f"{lead}{_quote(key)}: ")
                    _encode(value, depth + 1, out)
                lead = sep
        except ReportValueError as exc:
            exc.steps.append(f".{key}")
            raise
        out.append(close)
    elif kind is list or kind is tuple:
        if not node:
            out.append("[]")
            return
        _, lead, sep, _, close = _LEVELS[depth] if depth < _DEPTHS else _level(depth)
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
            out.append(lead + sep.join(texts) + close)
            return
        try:
            for step, item in enumerate(node):
                out.append(lead)
                _encode(item, depth + 1, out)
                lead = sep
        except ReportValueError as exc:
            exc.steps.append(f"[{step}]")
            raise
        out.append(close)
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
    _encode(report_to_dict(report), 0, out)
    out.append("\n")
    return "".join(out)


def write_report(report: Report, path: str) -> None:
    # serialize before opening, so a refused report leaves the file untouched
    payload = report_to_json(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
