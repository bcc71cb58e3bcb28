"""The composition gate's verdicts over a bounded composition space.

Every composition of up to three single-mechanism stages, plus every
two-stage composition whose parallel groups hold up to two mechanisms
(duplicates included), is run through :func:`check_plan` and
:func:`composition_warnings`; a composition that passes the gate also
records the Table I cell it lands in.  The golden pins all three, so a
change to how the mechanism table is read cannot move a verdict
unnoticed.  It stores each distinct message once and one verdict line
per composition, in enumeration order.  Regenerate it only after an
intentional change to the gate::

    PYTHONPATH=src python tests/core/test_gate_invariance.py
"""

import itertools
import json
import pathlib

from repro.core.mechanisms import MECHANISMS
from repro.core.namespace_api import _policy_semantics
from repro.core.policy import SubtreePolicy, check_plan, composition_warnings

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "gate_invariance.json"


def compositions(names):
    out = []
    for n in (1, 2, 3):
        out += ["+".join(s) for s in itertools.product(names, repeat=n)]
    groups = names + ["||".join(p) for p in itertools.product(names, repeat=2)]
    out += ["+".join(s) for s in itertools.product(groups, repeat=2)]
    return list(dict.fromkeys(out))


def survey():
    """The golden document: mechanisms, message texts and one
    ``errors|warnings|cell`` line (message indices) per composition."""
    names = sorted(MECHANISMS)
    texts = {}

    def ids(strings):
        return ",".join(str(texts.setdefault(s, len(texts))) for s in strings)

    verdicts = []
    for comp in compositions(names):
        errors = [e.render() for e in check_plan(comp)]
        cell = ""
        if not errors:
            c, d = _policy_semantics(
                SubtreePolicy(consistency=comp, durability="none")
            )
            cell = f"{c.value}/{d.value}"
        warnings = composition_warnings(comp)
        verdicts.append(f"{ids(errors)}|{ids(warnings)}|{cell}")
    return {"mechanisms": names, "texts": list(texts), "verdicts": verdicts}


def decode(doc):
    """composition -> (errors, warnings, cell), with messages spelled out."""
    texts = doc["texts"]
    out = {}
    for comp, line in zip(compositions(doc["mechanisms"]), doc["verdicts"]):
        errors, warnings, cell = line.split("|")
        out[comp] = (
            [texts[int(i)] for i in errors.split(",") if i],
            [texts[int(i)] for i in warnings.split(",") if i],
            cell,
        )
    return out


def test_gate_verdicts_match_golden():
    golden = decode(json.loads(GOLDEN.read_text(encoding="utf-8")))
    fresh = decode(survey())
    assert sorted(fresh) == sorted(golden)
    moved = [comp for comp in golden if fresh[comp] != golden[comp]]
    assert not moved, (
        f"{len(moved)} verdicts moved; {moved[0]}: "
        f"{golden[moved[0]]} -> {fresh[moved[0]]}"
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(survey(), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
