"""``dump`` bytes over a seeded stream of inputs for every scheme kind.

``golden_dump_stream.json`` was captured from the package before the
coupled builders wrote their images in system space.  For each kind it
holds about 100 seeded draws, built through ``SCHEME_KINDS[kind].build``:
negative gammas, complex rra and zero-aux amplitudes, the ``|c| = 1``,
``c = 0`` and ``alpha = gamma^2`` branches of the mixed coupling, the
corners of the unambiguous family, and inputs outside each domain.  It
pins the number of schemes built, the count of each domain-error code,
and one sha256 over the ``dump`` text of every built scheme in draw order.
"""
import hashlib
import json
from pathlib import Path

import pytest

from statedisc import cli, serialize
from statedisc.errors import DiscriminationError
from statedisc.schemes import SCHEME_KINDS

GOLDEN = json.loads((Path(__file__).parent / "golden_dump_stream.json").read_text())

COMPLEX_INPUTS = {"c_plus", "c_minus", "g01", "g12", "g20"}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_dump_stream(kind):
    ref = GOLDEN[kind]
    build = SCHEME_KINDS[kind].build
    digest = hashlib.sha256()
    built, errors = 0, {}
    for draw in ref["draws"]:
        values = {
            k: serialize.complex_from_json(v) if k in COMPLEX_INPUTS else v
            for k, v in draw["values"].items()
        }
        try:
            scheme = build(values, draw["priors"], draw["allow_trivial"])
        except DiscriminationError as exc:
            errors[exc.code] = errors.get(exc.code, 0) + 1
            continue
        built += 1
        digest.update(cli._json_text(serialize.scheme_to_json(scheme)).encode())
    assert (built, errors) == (ref["built"], ref["errors"])
    assert digest.hexdigest() == ref["dump_sha256"]
