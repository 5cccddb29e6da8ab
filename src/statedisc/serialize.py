"""JSON and CSV encodings for every value the CLI emits or reloads.

Complex numbers serialize as two-element ``[re, im]`` arrays; matrices as
nested row lists of those pairs; outcome labels as the tagged strings
``"identify:<i>"`` and ``"inconclusive"``.  Loaders rebuild values through
the public constructors, so every invariant is re-checked on the way in.

CSV output is byte-stable: floats at 12 significant digits, '.' decimal
separator, '\\n' line endings.  Comparison tables have one writer per
format, which streams the kernel's columns; the record writers match it.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import asdict, fields

import numpy as np

from .analysis import ComparisonColumns, ComparisonRecord
from .errors import LabelMismatchError, ParamOutOfRangeError
from .measurement import OutcomeLabel, Povm
from .montecarlo import SimResult
from .schemes import SCHEME_KINDS, Scheme, SchemeParams
from .states import Ensemble

CSV_HEADER = (
    "gamma,alpha,p0,p1,p2,p_mixed,reference_kind,p_una_reference,margin,verdict"
)


def format_float(value: float) -> str:
    """Fixed 12-significant-digit rendering used by every CSV cell."""
    return "%.12g" % (float(value) + 0.0)  # adding 0.0 folds -0.0


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def _pairs_to_json(a) -> list:
    """``complex_to_json`` of every entry, read off the float pairs at once."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def _pairs_from_json(rows, ndim: int) -> np.ndarray:
    """Complex array of ``ndim`` dimensions from nested ``[re, im]`` pairs,
    bits kept.  Unless they are only numbers in that shape, it reads each
    row with ``ndim - 1``, down to pair by pair, and raises as
    ``complex_from_json`` does."""
    try:
        a = np.array(rows)
    except (TypeError, ValueError):  # ragged
        a = None
    if a is not None and a.dtype.kind in "biuf" and a.shape[ndim:] == (2,):
        return a.astype(np.float64).view(np.complex128)[..., 0]
    read = complex_from_json if ndim == 1 else (lambda r: _pairs_from_json(r, ndim - 1))
    return np.array([read(r) for r in rows], dtype=np.complex128)


def ensemble_to_json(ens: Ensemble) -> dict:
    return {"states": _pairs_to_json(ens.states), "priors": ens.priors.tolist()}


def ensemble_from_json(data) -> Ensemble:
    return Ensemble((_pairs_from_json(v, 1) for v in data["states"]), data["priors"])


#: An index of at most 18 digits, which ``int`` reads whatever its digit limit.
_IDENTIFY = re.compile("identify:(0|[1-9][0-9]{0,17})")


def label_to_json(label: OutcomeLabel) -> str:
    return str(label)


def label_from_json(text) -> OutcomeLabel:
    """The label ``label_to_json`` writes: ``"inconclusive"``, or
    ``"identify:"`` and the index in canonical ASCII digits."""
    if text == "inconclusive":
        return OutcomeLabel.inconclusive()
    match = isinstance(text, str) and _IDENTIFY.fullmatch(text)
    if not match:
        raise LabelMismatchError(f"unknown outcome label {text!r}")
    return OutcomeLabel.identify(int(match[1]))


def povm_to_json(povm: Povm) -> dict:
    return {
        "elements": _pairs_to_json(povm.elements),
        "labels": [label_to_json(lab) for lab in povm.labels],
    }


def povm_from_json(data) -> Povm:
    return Povm(
        elements=tuple(_pairs_from_json(e, 2) for e in data["elements"]),
        labels=tuple(label_from_json(t) for t in data["labels"]),
    )


# Codec per params field type, the type its kind's builder takes: (to JSON,
# from JSON).
_FIELD_CODECS = {complex: (complex_to_json, complex_from_json), float: (float, float)}


def params_to_json(params: SchemeParams) -> dict:
    kind = SCHEME_KINDS.get(getattr(params, "kind", None))
    if kind is None or type(params) is not kind.params:
        raise ParamOutOfRangeError(f"unknown params type {type(params).__name__}")
    out = {"kind": params.kind}
    for f in fields(params):
        out[f.name] = _FIELD_CODECS[kind.types[f.name]][0](getattr(params, f.name))
    return out


def params_from_json(data) -> SchemeParams:
    tag = data.get("kind")
    kind = SCHEME_KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise ParamOutOfRangeError(f"unknown params kind {tag!r}")
    names = [f.name for f in fields(kind.params)]
    return kind.params(**{k: _FIELD_CODECS[kind.types[k]][1](data[k]) for k in names})


def scheme_to_json(scheme: Scheme) -> dict:
    return {
        "ensemble": ensemble_to_json(scheme.ensemble),
        "ancilla_dim": scheme.ancilla_dim,
        "coupling": _pairs_to_json(scheme.coupling),
        "povm": povm_to_json(scheme.povm),
        "analytic_success": scheme.analytic_success,
        "params": params_to_json(scheme.params),
        "branch_note": scheme.branch_note,
    }


def scheme_from_json(data) -> Scheme:
    # The constructor re-validates unitarity, POVM structure, and the
    # pipeline-vs-analytic agreement, so a tampered file fails loudly.
    ancilla_dim = data["ancilla_dim"]
    if type(ancilla_dim) is not int:  # never a fraction, text or boolean
        raise TypeError(f"ancilla_dim {ancilla_dim!r} is not a JSON integer")
    return Scheme(
        ensemble=ensemble_from_json(data["ensemble"]),
        ancilla_dim=ancilla_dim,
        coupling=_pairs_from_json(data["coupling"], 2),
        povm=povm_from_json(data["povm"]),
        analytic_success=float(data["analytic_success"]),
        params=params_from_json(data["params"]),
        branch_note=str(data.get("branch_note", "")),
    )


def sim_result_to_json(result: SimResult) -> dict:
    return {**asdict(result), "counts": result.counts.tolist()}


def comparison_record_to_json(record: ComparisonRecord) -> dict:
    return {**asdict(record), "priors": list(record.priors)}


def _csv_row_template(reference_kind: str, has_alpha: bool) -> str:
    """%-template of one comparison CSV row.

    It takes gamma, alpha (only when ``has_alpha``), p0, p1, p2, p_mixed,
    p_una_reference and margin, each with -0.0 already folded, then the
    verdict text; a record without alpha leaves its cell empty.
    """
    alpha = "%.12g" if has_alpha else ""
    return f"%.12g,{alpha},%.12g,%.12g,%.12g,%.12g,{reference_kind},%.12g,%.12g,%s"


def _table_rows(table: ComparisonColumns, fold: bool):
    """The rows a row template takes, gamma doubling as alpha for 3.1."""
    floats = [
        table.gamma, *table.priors.T,
        table.p_mixed, table.p_una_reference, table.margin,
    ]
    if fold:
        floats = [c + 0.0 for c in floats]  # adding 0.0 folds -0.0
    if table.theorem == "3.1":  # alpha is gamma
        floats.insert(1, floats[0])
    columns = [*floats, np.where(table.verdict, "true", "false")]
    return zip(*(c.tolist() for c in columns))


def comparison_records_to_csv(records) -> str:
    """Full CSV document (header plus rows), '\\n' separated, trailing newline."""
    lines = [CSV_HEADER]
    for r in records:
        alpha = () if r.alpha is None else (r.alpha,)
        values = (r.gamma, *alpha, *r.priors, r.p_mixed, r.p_una_reference, r.margin)
        row = _csv_row_template(r.reference_kind, r.alpha is not None)
        verdict = "true" if r.verdict else "false"
        lines.append(row % (*(float(v) + 0.0 for v in values), verdict))
    return "\n".join(lines) + "\n"


def comparison_csv_pieces(tables) -> Iterator[str]:
    """The CSV document of a stream of comparison tables, piece by piece.

    Byte-identical to :func:`comparison_records_to_csv` over the tables'
    records in turn, without building them: one %-template per row.
    """
    yield CSV_HEADER + "\n"
    for table in tables:
        row = _csv_row_template(table.reference_kind, table.theorem == "3.1") + "\n"
        yield "".join(map(row.__mod__, _table_rows(table, True)))


def _json_record_template(reference_kind: str, has_alpha: bool) -> str:
    """``json.dumps`` text of one comparison record as an ``indent=2`` list item.

    The %-template takes the same columns as :func:`_csv_row_template`,
    unfolded: ``%r`` is the ``repr`` that ``json`` writes for a float,
    ``-0.0`` included.  A record without alpha has ``null`` there.
    """
    alpha = "%r" if has_alpha else "null"
    return (
        f'  {{\n    "gamma": %r,\n    "alpha": {alpha},\n'
        '    "priors": [\n      %r,\n      %r,\n      %r\n    ],\n'
        '    "p_mixed": %r,\n    "p_una_reference": %r,\n'
        f'    "reference_kind": "{reference_kind}",\n'
        '    "margin": %r,\n    "verdict": %s\n  }'
    )


def comparison_json_pieces(tables) -> Iterator[str]:
    """The JSON document of a stream of comparison tables, piece by piece.

    Byte-identical to ``json.dumps([comparison_record_to_json(r) for r in
    records], indent=2) + "\\n"`` over the tables' records in turn,
    without building them: one %-template per record.
    """
    sep = "[\n"
    for table in tables:
        if len(table):
            item = _json_record_template(table.reference_kind, table.theorem == "3.1")
            yield sep + ",\n".join(map(item.__mod__, _table_rows(table, False)))
            sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"
