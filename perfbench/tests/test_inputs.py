"""The generator: one seed decides every input, with a fixed make-up."""

import numpy as np

import inputs


def _same(a, b):
    return all(x.name == y.name and x.card == y.card and x.parents == y.parents
               and np.array_equal(x.table, y.table)
               for x, y in zip(a.nodes, b.nodes))


def test_same_seed_same_inputs():
    a, b = inputs.fusion_spec(7), inputs.fusion_spec(7)
    assert _same(a, b)
    assert inputs.serve_catalogue(a) == inputs.serve_catalogue(b)
    assert np.array_equal(inputs.serve_stream(a), inputs.serve_stream(b))
    assert inputs.diagnose_catalogue(a) == inputs.diagnose_catalogue(b)
    assert np.array_equal(inputs.diagnose_round(a), inputs.diagnose_round(b))
    assert inputs.voi_round(a, 3) == inputs.voi_round(b, 3)
    assert inputs.campaign_seed(7, 5) == inputs.campaign_seed(7, 5)


def test_other_seed_other_inputs():
    a, b = inputs.fusion_spec(7), inputs.fusion_spec(8)
    assert not _same(a, b)
    # One topology, other parameters.
    assert [(n.card, n.parents) for n in a.nodes] == [
        (n.card, n.parents) for n in b.nodes]
    assert inputs.serve_catalogue(a) != inputs.serve_catalogue(b)
    assert inputs.campaign_seed(7, 0) != inputs.campaign_seed(8, 0)


def test_network_make_up():
    for seed in range(20):
        spec = inputs.fusion_spec(seed)
        assert sorted(n.card for n in spec.hidden) == sorted(
            inputs.HIDDEN_CARDS)
        assert sorted(n.card for n in spec.sensors) == sorted(
            inputs.SENSOR_CARDS)
        for i, n in enumerate(spec.hidden):
            assert (1 if i else 0) <= len(n.parents) <= 2
            assert all(p < n.name for p in n.parents)
        for n in spec.sensors:
            assert 1 <= len(n.parents) <= 2
            assert all(p.startswith("h") for p in n.parents)
        for n in spec.nodes:
            assert np.allclose(n.table.sum(axis=-1), 1.0)
            assert (n.table > 0).all()


def test_diagnose_catalogue_hits_each_exact_path():
    spec = inputs.fusion_spec(3)
    catalogue = inputs.diagnose_catalogue(spec)
    for rank, q in enumerate(catalogue):
        kind = inputs.diagnose_category(rank)
        assert (q.kind == "marginals") == (kind == "marginals")
        if q.kind == "marginals":
            continue
        subset = [int(name[1:]) for name in q.evidence]
        entries = inputs.table_entries(spec, q.target, subset)
        if kind == "big":
            assert inputs.BIG_BAND[0] <= entries <= inputs.BIG_BAND[1]
        elif kind == "stacked":
            assert entries > inputs.TABLE_LIMIT
        else:
            assert 1 <= len(q.evidence) <= 8


def test_voi_round_counts_and_candidates():
    spec = inputs.fusion_spec(1)
    rankings = inputs.voi_round(spec, 0)
    assert sorted(len(r.evidence) for r in rankings) == list(
        inputs.VOI_COUNTS)
    for r in rankings:
        assert set(r.candidates) == set(spec.sensor_names) - set(r.evidence)
        assert r.target in spec.hidden_names


def test_evidence_is_sampled_from_the_model():
    # Every sampled state is a valid state of its sensor.
    spec = inputs.fusion_spec(2)
    for q in inputs.serve_catalogue(spec)[:200]:
        assert 1 <= len(q.evidence) <= 4
        for name, state in q.evidence.items():
            assert state in spec.node(name).states
