"""The k-sets endpoint walks each (configuration, k) once.

``GET /v1/matrix/ksets`` derives its whole summary from the non-zero walk
that :class:`~repro.analysis.ksets.KSetAnalysis` memoises, and the registry
memoises that analysis per configuration.  So one payload costs one walk,
a different ``top`` for the same ``k`` costs none, and a sharded fleet
answering from span-restricted reductions stays byte-identical to a single
process on a catalogue where nearly every combination is zero.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import IncidenceIndex
from repro.service import (
    DiversityService,
    ServiceConfig,
    StaticDatasetProvider,
    local_shard_fleet,
)
from repro.service.server import HttpRequest
from repro.synthetic.generator import generate_scaled_catalogue

from tests.service.conftest import make_app


def _get(app, path, **query):
    return app.dispatch(
        HttpRequest(
            method="GET",
            path=path,
            query={name: (value,) for name, value in query.items()},
            headers={},
        )
    )


def test_one_walk_per_configuration_and_k(corpus, monkeypatch):
    walks = []
    original = IncidenceIndex.nonzero_k_sets

    def spy(self, os_names, k):
        walks.append(k)
        return original(self, os_names, k)

    monkeypatch.setattr(IncidenceIndex, "nonzero_k_sets", spy)
    app = make_app(corpus)
    assert _get(app, "/v1/matrix/ksets", k="3").status == 200
    assert walks == [3]
    assert _get(app, "/v1/matrix/ksets", k="3", top="7").status == 200
    assert walks == [3]
    assert _get(app, "/v1/matrix/ksets", k="3", configuration="fat").status == 200
    assert walks == [3, 3]
    assert _get(app, "/v1/matrix/ksets", k="4", top="2").status == 200
    assert walks == [3, 3, 4]


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_ksets_on_a_sparse_catalogue_are_byte_identical(shards):
    catalogue = generate_scaled_catalogue(n_families=4, releases_per_family=4)
    provider = StaticDatasetProvider(catalogue.entries, os_names=catalogue.os_names)
    single = DiversityService(ServiceConfig(), provider)
    fleet = local_shard_fleet(ServiceConfig(), shards, provider=provider)
    for k, top in (("3", "5"), ("4", "9")):
        reference = _get(single, "/v1/matrix/ksets", k=k, top=top)
        assert reference.status == 200
        for app in fleet:
            result = _get(app, "/v1/matrix/ksets", k=k, top=top)
            assert result.status == 200
            assert result.body == reference.body
    assert fleet[0].scatter_remote > 0
