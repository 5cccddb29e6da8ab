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
import goldens
import pytest

from statedisc import cli, serialize
from statedisc.errors import DiscriminationError
from statedisc.schemes import SCHEME_KINDS

GOLDEN = goldens.load("golden_dump_stream.json")


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_dump_stream(kind):
    ref = GOLDEN[kind]
    build = SCHEME_KINDS[kind].build
    texts, errors = [], {}
    for draw in ref["draws"]:
        try:
            scheme = build(goldens.decode(draw["values"]), draw["priors"], draw["allow_trivial"])
        except DiscriminationError as exc:
            errors[exc.code] = errors.get(exc.code, 0) + 1
            continue
        texts.append(cli._json_text(serialize.scheme_to_json(scheme)))
    goldens.same((len(texts), errors), (ref["built"], ref["errors"]), f"the {kind} outcomes")
    goldens.same(goldens.sha(*texts), ref["dump_sha256"], f"the {kind} dump sha256")
