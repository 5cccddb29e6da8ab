"""Bit-identity of every built and reloaded scheme over a seeded stream.

``golden_build_stream.json`` was captured from the package before the
build and reload path dropped its per-element loops and repeated
coercions, and is never re-captured.  For each kind it holds 64 seeded
in-domain draws (negative and tiny gammas, complex rra and zero-aux
phases, zero priors, the ``|c| = 1``, ``c = 0`` and family-corner
branches) after the ``golden_branches.json`` edge cases, each built
through ``SCHEME_KINDS[kind].build``.  Per draw it pins the sha256 of
``json.dumps(scheme_to_json(s))``, ``repr(s.pipeline_success)`` and a
sha256 of the readouts ``run`` and ``validate`` print (pipeline success,
unitarity and completeness residuals, the confusion matrix), for the
built scheme and for the scheme reloaded from that JSON text.
"""
import hashlib
import json
from pathlib import Path

import pytest

from statedisc import serialize
from statedisc.schemes import SCHEME_KINDS

GOLDEN = json.loads((Path(__file__).parent / "golden_build_stream.json").read_text())

COMPLEX_INPUTS = {"c_plus", "c_minus", "g01", "g12", "g20"}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _readout(s) -> str:
    return repr((s.pipeline_success, s.unitarity_residual,
                 s.povm.completeness_residual, s.confusion.tolist()))


def _pins(s, text: str) -> tuple:
    return _sha(text), repr(s.pipeline_success), _sha(_readout(s))


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_build_and_reload_stream(kind):
    build = SCHEME_KINDS[kind].build
    assert len(GOLDEN[kind]) >= 60
    for k, ref in enumerate(GOLDEN[kind]):
        values = {
            name: serialize.complex_from_json(v) if name in COMPLEX_INPUTS else v
            for name, v in ref["values"].items()
        }
        scheme = build(values, ref["priors"], ref["allow_trivial"])
        text = json.dumps(serialize.scheme_to_json(scheme))
        want = (ref["json_sha256"], ref["pipeline_success"], ref["readout_sha256"])
        assert _pins(scheme, text) == want, f"{kind} draw {k} built"
        reloaded = serialize.scheme_from_json(json.loads(text))
        again = json.dumps(serialize.scheme_to_json(reloaded))
        want = (ref["reload_json_sha256"], ref["reload_pipeline_success"],
                ref["reload_readout_sha256"])
        assert _pins(reloaded, again) == want, f"{kind} draw {k} reloaded"
