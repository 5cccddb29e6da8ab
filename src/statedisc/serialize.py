"""JSON and CSV encodings for every value the CLI emits or reloads.

Complex numbers serialize as two-element ``[re, im]`` arrays; matrices as
nested row lists of those pairs; outcome labels as the tagged strings
``"identify:<i>"`` and ``"inconclusive"``.  Loaders rebuild values through
the public constructors, so every invariant is re-checked on the way in.

CSV output is byte-stable: floats at 12 significant digits, '.' decimal
separator, '\\n' line endings.  Comparison tables are written straight
from the kernel's columns, byte-identical to writing their records.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np

from .analysis import ComparisonColumns, ComparisonRecord
from .errors import LabelMismatchError, ParamOutOfRangeError
from .measurement import OutcomeLabel, Povm
from .montecarlo import SimResult
from .schemes import SCHEME_KINDS, Scheme, SchemeParams
from .states import Ensemble, Ket

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


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_json(z) for z in np.asarray(v).ravel()]


def vector_from_json(rows) -> np.ndarray:
    return np.array([complex_from_json(p) for p in rows], dtype=np.complex128)


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array(
        [[complex_from_json(p) for p in row] for row in rows], dtype=np.complex128
    )


def ensemble_to_json(ens: Ensemble) -> dict:
    return {
        "states": [vector_to_json(s.amplitudes) for s in ens.states],
        "priors": [float(p) for p in ens.priors],
    }


def ensemble_from_json(data) -> Ensemble:
    states = tuple(Ket(vector_from_json(v)) for v in data["states"])
    return Ensemble(states, np.array(data["priors"], dtype=float))


def label_to_json(label: OutcomeLabel) -> str:
    return str(label)


def label_from_json(text: str) -> OutcomeLabel:
    if text == "inconclusive":
        return OutcomeLabel.inconclusive()
    if text.startswith("identify:"):
        return OutcomeLabel.identify(int(text[len("identify:") :]))
    raise LabelMismatchError(f"unknown outcome label {text!r}")


def povm_to_json(povm: Povm) -> dict:
    return {
        "elements": [matrix_to_json(e) for e in povm.elements],
        "labels": [label_to_json(lab) for lab in povm.labels],
    }


def povm_from_json(data) -> Povm:
    return Povm(
        elements=tuple(matrix_from_json(e) for e in data["elements"]),
        labels=tuple(label_from_json(t) for t in data["labels"]),
    )


# Codec per params field annotation, which is a string because schemes
# postpones annotation evaluation: (to JSON, from JSON).
_FIELD_CODECS = {
    "complex": (complex_to_json, complex_from_json),
    "float": (float, float),
}


def params_to_json(params: SchemeParams) -> dict:
    kind = SCHEME_KINDS.get(getattr(params, "kind", None))
    if kind is None or type(params) is not kind.params:
        raise ParamOutOfRangeError(f"unknown params type {type(params).__name__}")
    out = {"kind": params.kind}
    for f in fields(params):
        out[f.name] = _FIELD_CODECS[f.type][0](getattr(params, f.name))
    return out


def params_from_json(data) -> SchemeParams:
    tag = data.get("kind")
    kind = SCHEME_KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise ParamOutOfRangeError(f"unknown params kind {tag!r}")
    return kind.params(
        **{f.name: _FIELD_CODECS[f.type][1](data[f.name]) for f in fields(kind.params)}
    )


def scheme_to_json(scheme: Scheme) -> dict:
    return {
        "ensemble": ensemble_to_json(scheme.ensemble),
        "ancilla_dim": scheme.ancilla_dim,
        "coupling": matrix_to_json(scheme.coupling),
        "povm": povm_to_json(scheme.povm),
        "analytic_success": scheme.analytic_success,
        "params": params_to_json(scheme.params),
        "branch_note": scheme.branch_note,
    }


def scheme_from_json(data) -> Scheme:
    # The constructor re-validates unitarity, POVM structure, and the
    # pipeline-vs-analytic agreement, so a tampered file fails loudly.
    return Scheme(
        ensemble=ensemble_from_json(data["ensemble"]),
        ancilla_dim=int(data["ancilla_dim"]),
        coupling=matrix_from_json(data["coupling"]),
        povm=povm_from_json(data["povm"]),
        analytic_success=float(data["analytic_success"]),
        params=params_from_json(data["params"]),
        branch_note=str(data.get("branch_note", "")),
    )


def sim_result_to_json(result: SimResult) -> dict:
    return {
        "n": result.n,
        "counts": [[int(c) for c in row] for row in result.counts],
        "empirical_success": result.empirical_success,
        "std_error": result.std_error,
        "seed": result.seed,
    }


def sim_result_from_json(data) -> SimResult:
    return SimResult(
        n=int(data["n"]),
        counts=np.array(data["counts"], dtype=np.int64),
        empirical_success=float(data["empirical_success"]),
        std_error=float(data["std_error"]),
        seed=int(data["seed"]),
    )


def comparison_record_to_json(record: ComparisonRecord) -> dict:
    return {
        "gamma": record.gamma,
        "alpha": record.alpha,
        "priors": list(record.priors),
        "p_mixed": record.p_mixed,
        "p_una_reference": record.p_una_reference,
        "reference_kind": record.reference_kind,
        "margin": record.margin,
        "verdict": record.verdict,
    }


def comparison_record_from_json(data) -> ComparisonRecord:
    return ComparisonRecord(
        gamma=float(data["gamma"]),
        alpha=None if data.get("alpha") is None else float(data["alpha"]),
        priors=tuple(float(x) for x in data["priors"]),
        p_mixed=float(data["p_mixed"]),
        p_una_reference=float(data["p_una_reference"]),
        reference_kind=str(data["reference_kind"]),
        margin=float(data["margin"]),
        verdict=bool(data["verdict"]),
    )


def _csv_row_template(reference_kind: str, has_alpha: bool) -> str:
    """%-template of one comparison CSV row.

    It takes gamma, alpha (only when ``has_alpha``), p0, p1, p2, p_mixed,
    p_una_reference and margin, each with -0.0 already folded, then the
    verdict text; a record without alpha leaves its cell empty.
    """
    alpha = "%.12g" if has_alpha else ""
    return f"%.12g,{alpha},%.12g,%.12g,%.12g,%.12g,{reference_kind},%.12g,%.12g,%s"


# Rows are formatted this many at a time from the columns, so that only
# one chunk's worth of Python floats and row strings is alive at once.
_CHUNK_ROWS = 4096


def _template_rows(template: str, columns, sep: str) -> list[str]:
    """``template % row`` for every row of the columns, ``sep``-joined per chunk."""
    chunks = []
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*(c[i : i + _CHUNK_ROWS].tolist() for c in columns))
        chunks.append(sep.join(map(template.__mod__, rows)))
    return chunks


def _table_columns(table: ComparisonColumns, fold: bool) -> list:
    """The columns a row template takes, gamma doubling as alpha for 3.1."""
    floats = [
        table.gamma, *table.priors.T,
        table.p_mixed, table.p_una_reference, table.margin,
    ]
    if fold:
        floats = [c + 0.0 for c in floats]  # adding 0.0 folds -0.0
    if table.theorem == "3.1":  # alpha is gamma
        floats.insert(1, floats[0])
    return [*floats, np.where(table.verdict, "true", "false")]


def _csv_document(rows) -> str:
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def comparison_record_to_csv_row(record: ComparisonRecord) -> str:
    alpha = () if record.alpha is None else (record.alpha,)
    values = (
        record.gamma, *alpha, *record.priors,
        record.p_mixed, record.p_una_reference, record.margin,
    )
    template = _csv_row_template(record.reference_kind, record.alpha is not None)
    return template % (
        *(float(v) + 0.0 for v in values), "true" if record.verdict else "false"
    )


def comparison_records_to_csv(records) -> str:
    """Full CSV document (header plus rows), '\\n' separated, trailing newline."""
    return _csv_document(map(comparison_record_to_csv_row, records))


def comparison_columns_to_csv(table: ComparisonColumns) -> str:
    """The CSV document of a comparison table, written from its columns.

    Byte-identical to :func:`comparison_records_to_csv` over the table's
    records, without building them: one %-template per row.
    """
    template = _csv_row_template(table.reference_kind, table.theorem == "3.1")
    return _csv_document(_template_rows(template, _table_columns(table, True), "\n"))


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


def comparison_columns_to_json(table: ComparisonColumns) -> str:
    """The JSON document of a comparison table, written from its columns.

    Byte-identical to ``json.dumps([comparison_record_to_json(r) for r in
    records], indent=2) + "\\n"`` over the table's records, without
    building them: one %-template per record.
    """
    if not len(table):
        return "[]\n"
    template = _json_record_template(table.reference_kind, table.theorem == "3.1")
    body = ",\n".join(_template_rows(template, _table_columns(table, False), ",\n"))
    return "[\n" + body + "\n]\n"
