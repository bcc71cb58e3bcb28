"""The ``policies.yml`` format.

"Users present a directory path and a policies configuration ... The
policies file supports the following parameters (default values are in
parenthesis): which consistency model to use (RPCs), which durability
model to use (stream), number of inodes to provision to the decoupled
namespace (100), and which interfere policy to use (allow)."  (§III-C)

The parser handles the flat YAML subset those files need — ``key: value``
lines, comments, quoted strings, integers — with no external dependency.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.core.policy import SubtreePolicy

__all__ = ["PolicyFileError", "parse_policies"]

_KEYS = {
    "consistency": str,
    "durability": str,
    "allocated_inodes": int,
    "interfere": str,
    "read_lazy": bool,
}


class PolicyFileError(ValueError):
    """Malformed policies file."""


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _normalize_composition(value: str) -> str:
    """Lowercase, map prose names ("Append Client Journal", as the paper
    writes them) to identifiers, tighten separators."""
    out_stages = []
    for stage in value.split("+"):
        groups = []
        for mech in stage.split("||"):
            groups.append(mech.strip().lower().replace(" ", "_"))
        out_stages.append("||".join(groups))
    return "+".join(out_stages)


def parse_policies(text: str) -> SubtreePolicy:
    """Parse a policies file into a :class:`SubtreePolicy`.

    An empty file yields the defaults — "the subtree would behave like
    the existing CephFS implementation" with 100 provisioned inodes.
    """
    values: Dict[str, Union[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith((" ", "\t")):
            raise PolicyFileError(
                f"line {lineno}: nested structure not supported: {raw!r}"
            )
        if ":" not in line:
            raise PolicyFileError(f"line {lineno}: expected 'key: value': {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key not in _KEYS:
            raise PolicyFileError(
                f"line {lineno}: unknown key {key!r}; "
                f"expected one of {sorted(_KEYS)}"
            )
        if key in values:
            raise PolicyFileError(f"line {lineno}: duplicate key {key!r}")
        value = _unquote(value)
        if not value:
            raise PolicyFileError(f"line {lineno}: missing value for {key!r}")
        if _KEYS[key] is int:
            try:
                values[key] = int(value)
            except ValueError:
                raise PolicyFileError(
                    f"line {lineno}: {key} must be an integer, got {value!r}"
                ) from None
        elif _KEYS[key] is bool:
            lowered = value.strip().lower()
            if lowered not in ("true", "false", "yes", "no"):
                raise PolicyFileError(
                    f"line {lineno}: {key} must be true/false, got {value!r}"
                )
            values[key] = lowered in ("true", "yes")
        else:
            values[key] = value

    kwargs: Dict[str, Union[str, int]] = {}
    if "consistency" in values:
        kwargs["consistency"] = _normalize_composition(str(values["consistency"]))
    if "durability" in values:
        kwargs["durability"] = _normalize_composition(str(values["durability"]))
    if "allocated_inodes" in values:
        kwargs["allocated_inodes"] = values["allocated_inodes"]
    if "interfere" in values:
        kwargs["interfere"] = str(values["interfere"]).strip().lower()
    if "read_lazy" in values:
        kwargs["read_lazy"] = values["read_lazy"]
    try:
        return SubtreePolicy(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise PolicyFileError(str(exc)) from exc
