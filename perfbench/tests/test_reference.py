"""The reference against brute-force enumeration, and Table I."""

import itertools

import numpy as np
import pytest

import inputs
import reference
from inputs import FusionSpec, Node


def tiny_spec(seed: int) -> FusionSpec:
    rng = np.random.default_rng(seed)

    def table(*shape):
        t = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1])))
        return t.reshape(shape)

    h0 = Node("h00", 2, (), table(2))
    h1 = Node("h01", 3, ("h00",), table(2, 3))
    h2 = Node("h02", 2, ("h00", "h01"), table(2, 3, 2))
    s0 = Node("s00", 2, ("h01",), table(3, 2))
    s1 = Node("s01", 3, ("h00", "h02"), table(2, 2, 3))
    s2 = Node("s02", 2, ("h02",), table(2, 2))
    return FusionSpec(seed, (h0, h1, h2), (s0, s1, s2))


@pytest.mark.parametrize("seed", range(4))
def test_einsum_matches_enumeration(seed):
    spec = tiny_spec(seed)
    ref = reference.FusionReference(spec)
    sensors = spec.sensors
    for k in range(len(sensors) + 1):
        for chosen in itertools.combinations(sensors, k):
            for states in itertools.product(*[n.states for n in chosen]):
                evidence = {n.name: s for n, s in zip(chosen, states)}
                for target in spec.nodes:
                    if target.name in evidence:
                        continue
                    got = ref.query(target.name, evidence)
                    want = reference.brute_force(spec.nodes, target.name,
                                                 evidence)
                    assert reference.max_abs_diff(got, want) < 1e-12


def test_marginals_mark_observed_nodes():
    spec = tiny_spec(0)
    ref = reference.FusionReference(spec)
    out = ref.marginals({"s00": "v1"})
    assert out["s00"] == {"v0": 0.0, "v1": 1.0}
    assert set(out) == {n.name for n in spec.nodes}


def test_evo_bounded_by_evpi():
    spec = tiny_spec(1)
    ref = reference.FusionReference(spec)
    utilities = {("a0", "v0"): 3.0, ("a0", "v1"): -1.0,
                 ("a1", "v0"): 0.0, ("a1", "v1"): 2.0}
    ceiling = reference.evpi(ref, "h00", ("a0", "a1"), utilities, {})
    for s in ("s00", "s01", "s02"):
        value = reference.evo(ref, "h00", ("a0", "a1"), utilities, {}, s)
        assert 0.0 <= value <= ceiling + 1e-12


def test_table1_bayes_rule():
    post = reference.table1_diagnostic()
    # P(car | perception=car) = 0.6*0.9 / (0.6*0.9 + 0.3*0.005 + 0).
    assert post["car"]["car"] == pytest.approx(0.54 / 0.5415, abs=1e-15)
    assert post["car/pedestrian"]["unknown"] == pytest.approx(
        0.1 * (0.2 / 0.9) / (0.6 * 0.05 + 0.3 * 0.05 + 0.1 * 0.2 / 0.9),
        abs=1e-15)
    for row in post.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-15)


def test_reference_agrees_with_the_program():
    from repro.bayesnet.engine import CompiledNetwork

    spec = inputs.fusion_spec(5)
    engine = CompiledNetwork(inputs.build_network(spec))
    ref = reference.FusionReference(spec)
    for q in inputs.serve_catalogue(spec)[:30]:
        assert reference.max_abs_diff(
            engine.query(q.target, q.evidence),
            ref.query(q.target, q.evidence)) < 1e-9
