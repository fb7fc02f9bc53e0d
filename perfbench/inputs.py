"""Seeded inputs of the benchmark: one seed argument decides all values.

Shapes (the topology; which target and which sensors each query names)
are drawn from the constant ``SHAPE_SEED``; values (CPT entries, observed
states, utilities, campaign seeds) from the run's seed.  See README.md.

The *sensor-fusion* network generalises the paper's Fig. 4 chain
(ground truth -> perception) to many sensors: about a dozen hidden scene
variables with 2-4 states and at most two hidden parents, and two dozen
sensor variables with 2-3 states and one or two hidden parents.  CPT
rows are drawn from Dirichlet distributions.  The generator keeps its
own CPT arrays (``FusionSpec``) so that the reference in
``reference.py`` never reads anything the program computed; the network
handed to the program is built from those arrays through the public
``BayesianNetwork``/``CPT`` API (``build_network``).

Every evidence set is sampled from the model itself, so P(e) > 0 and no
query of any workload is expected to fail.

This module imports ``repro`` only inside ``build_network``; the rest is
plain numpy, usable by the reference and the tests without the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

N_HIDDEN = 12
N_SENSORS = 24
DIRICHLET_ALPHA = 0.8

Evidence = Dict[str, str]


@dataclass(frozen=True)
class Node:
    name: str
    card: int
    parents: Tuple[str, ...]
    #: Axes (parent_1, ..., parent_k, child); rows sum to one.
    table: np.ndarray

    @property
    def states(self) -> Tuple[str, ...]:
        return tuple(f"v{i}" for i in range(self.card))


@dataclass(frozen=True)
class FusionSpec:
    seed: int
    hidden: Tuple[Node, ...]
    sensors: Tuple[Node, ...]

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self.hidden + self.sensors

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def hidden_names(self) -> List[str]:
        return [n.name for n in self.hidden]

    @property
    def sensor_names(self) -> List[str]:
        return [n.name for n in self.sensors]


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *path])


def _cpt(rng: np.random.Generator, parent_cards: Sequence[int],
         card: int) -> np.ndarray:
    rows = int(np.prod(parent_cards)) if parent_cards else 1
    table = rng.dirichlet(np.full(card, DIRICHLET_ALPHA), size=rows)
    # Dirichlet draws can underflow to exact zeros at small alpha; keep
    # every entry positive so every sampled evidence set has P(e) > 0
    # under both the model and the reference.
    table = np.maximum(table, 1e-6)
    table /= table.sum(axis=1, keepdims=True)
    return table.reshape(tuple(parent_cards) + (card,))


#: Make-up of the network: the multisets of cardinalities.
HIDDEN_CARDS = (2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4)
SENSOR_CARDS = (2,) * 12 + (3,) * 12
#: Shapes are drawn once from this constant: the topology, and which
#: target and which sensors each query names, in which order.  Values
#: come from the run's seed: every CPT entry, every observed state, every
#: utility.  Exact-inference time depends on shapes, not values; shapes
#: drawn per seed spread VoI and diagnose timings by 20-40% from seed to
#: seed, wider than any useful bound.
SHAPE_SEED = 0


def _shape_rng(*path: int) -> np.random.Generator:
    return _rng(SHAPE_SEED, *path)


def fusion_spec(seed: int) -> FusionSpec:
    """The seeded sensor-fusion network as plain arrays."""
    rng = _shape_rng(1)
    values = _rng(seed, 8)
    cards = [int(c) for c in rng.permutation(HIDDEN_CARDS)]
    hidden: List[Node] = []
    for i in range(N_HIDDEN):
        # Every hidden variable after the first has a hidden parent, so
        # the network is connected (the program's junction tree refuses
        # a network of several components).
        k = int(rng.integers(1, min(i, 2) + 1)) if i else 0
        parents = sorted(int(p) for p in rng.choice(i, size=k, replace=False)) \
            if k else []
        pnames = tuple(f"h{p:02d}" for p in parents)
        pcards = [cards[p] for p in parents]
        hidden.append(Node(f"h{i:02d}", cards[i], pnames,
                           _cpt(values, pcards, cards[i])))
    sensor_cards = [int(c) for c in rng.permutation(SENSOR_CARDS)]
    sensors: List[Node] = []
    for j in range(N_SENSORS):
        card = sensor_cards[j]
        k = 1 + j % 2
        parents = sorted(int(p) for p in
                         rng.choice(N_HIDDEN, size=k, replace=False))
        pnames = tuple(f"h{p:02d}" for p in parents)
        pcards = [cards[p] for p in parents]
        sensors.append(Node(f"s{j:02d}", card, pnames,
                            _cpt(values, pcards, card)))
    return FusionSpec(int(seed), tuple(hidden), tuple(sensors))


def build_network(spec: FusionSpec):
    """The spec as a ``repro`` network, through the public API only."""
    from repro.bayesnet.cpt import CPT
    from repro.bayesnet.network import BayesianNetwork
    from repro.bayesnet.variable import Variable

    variables = {n.name: Variable(n.name, n.states) for n in spec.nodes}
    bn = BayesianNetwork(f"fusion-{spec.seed}")
    for n in spec.nodes:
        bn.add_cpt(CPT(variables[n.name],
                       [variables[p] for p in n.parents], n.table.copy()))
    return bn


def sample_assignments(spec: FusionSpec, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """``n`` ancestral samples of every node, as an (n, nodes) index array."""
    names = [x.name for x in spec.nodes]
    col = {name: i for i, name in enumerate(names)}
    out = np.zeros((n, len(names)), dtype=np.int64)
    for node in spec.nodes:
        if node.parents:
            idx = tuple(out[:, col[p]] for p in node.parents)
            probs = node.table[idx]
        else:
            probs = np.broadcast_to(node.table, (n, node.card))
        u = rng.random(n)[:, None]
        out[:, col[node.name]] = np.minimum(
            (u > np.cumsum(probs, axis=1)).sum(axis=1), node.card - 1)
    return out


def evidence_sets(spec: FusionSpec, rng: np.random.Generator,
                  subsets: Sequence[Sequence[int]]) -> List[Evidence]:
    """Model-sampled states for each subset of sensor indices."""
    draws = sample_assignments(spec, rng, len(subsets))
    offset = len(spec.hidden)
    return [{spec.sensors[j].name: f"v{int(row[offset + j])}"
             for j in sorted(subset)}
            for row, subset in zip(draws, subsets)]


def random_subsets(rng: np.random.Generator, counts: Sequence[int]
                   ) -> List[List[int]]:
    return [sorted(int(j) for j in rng.choice(N_SENSORS, size=int(k),
                                              replace=False))
            for k in counts]


def table_entries(spec: FusionSpec, target: str,
                  subset: Sequence[int]) -> int:
    """Entries of the joint table over ``target`` and the sensors."""
    size = spec.node(target).card
    for j in subset:
        size *= spec.sensors[j].card
    return size


def subset_in_band(spec: FusionSpec, rng: np.random.Generator, target: str,
                   low: int, high: int, ks: Sequence[int]) -> List[int]:
    """A random sensor subset whose joint with ``target`` has between
    ``low`` and ``high`` entries (rejection sampling)."""
    while True:
        subset = random_subsets(rng, [int(rng.choice(ks))])[0]
        if low <= table_entries(spec, target, subset) <= high:
            return subset


def zipf_ranks(rng: np.random.Generator, n_items: int, exponent: float,
               n_draws: int) -> np.ndarray:
    """Zipf draws of catalogue ranks (rank 0 is the most popular)."""
    weights = 1.0 / np.arange(1, n_items + 1) ** exponent
    cdf = np.cumsum(weights / weights.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(n_draws)), n_items - 1)


# -- per-workload inputs ---------------------------------------------------

@dataclass(frozen=True)
class Query:
    kind: str                 # "query" or "marginals"
    target: str               # hidden target ("" for marginals)
    evidence: Evidence
    error_budget: float = -1.0  # < 0: no budget


#: serve-http: a catalogue larger than every cache of the service (engine
#: LRU 1024 per pool engine, service store 4096), Zipf-repeated.
SERVE_CATALOGUE = 12_000
SERVE_ZIPF = 1.3
SERVE_STREAM = 200_000
SERVE_BUDGET_SHARE = 0.2
SERVE_BUDGETS = (0.02, 0.05, 0.1)

#: diagnose-stream: rounds of Zipf draws over a ranked catalogue.
DIAG_CATALOGUE = 2_000
DIAG_ZIPF = 1.2
DIAG_ROUND = 2_500
#: Joint-table limit of the engine (MAX_BATCH_TABLE_ENTRIES, 4M entries);
#: restated so the generator does not read the program.
TABLE_LIMIT = 1 << 22
BIG_BAND = (1_000_000, 2_500_000)
BIG_RANKS = 40

#: voi-rank: rounds of rankings, one per observed-sensor count.  Counts
#: 11-16 are left out: there a candidate's signature builds a joint of
#: up to millions of entries and one ranking takes 0.3-3 s, too few
#: rankings per run for a 90th percentile (see README).
VOI_COUNTS = tuple(range(0, 11)) + tuple(range(17, 21))

#: campaign: fault trials per cell and intensities.
CAMPAIGN_TRIALS = 10
CAMPAIGN_INTENSITIES = (0.5, 1.0)


def _hidden_target(spec: FusionSpec, rng: np.random.Generator) -> str:
    return spec.hidden_names[int(rng.integers(0, N_HIDDEN))]


def serve_catalogue(spec: FusionSpec) -> List[Query]:
    """POST /query bodies: one hidden target, 1-4 observed sensors; about
    one in five carries an ``error_budget``."""
    rng = _shape_rng(2)
    subsets = random_subsets(rng, rng.integers(1, 5, size=SERVE_CATALOGUE))
    evidence = evidence_sets(spec, _rng(spec.seed, 2), subsets)
    out: List[Query] = []
    for ev in evidence:
        target = _hidden_target(spec, rng)
        budget = float(rng.choice(SERVE_BUDGETS)) \
            if rng.random() < SERVE_BUDGET_SHARE else -1.0
        out.append(Query("query", target, ev, budget))
    return out


def serve_stream(spec: FusionSpec) -> np.ndarray:
    """Catalogue indices in request order (popularity placed by a
    permutation)."""
    rng = _shape_rng(3)
    ranks = zipf_ranks(rng, SERVE_CATALOGUE, SERVE_ZIPF, SERVE_STREAM)
    return rng.permutation(SERVE_CATALOGUE)[ranks]


def diagnose_category(rank: int) -> str:
    """Which exact path a catalogue rank is built to exercise.

    The make-up is fixed by rank, so every seed's round holds the same
    number of each kind: ``big`` joints of 1M-2.5M entries (kept in the
    engine's joint memo) among the popular ranks, ``stacked`` evidence
    above the 4M-entry table limit, ``marginals`` calls, and ``small``
    joint slices for the rest.
    """
    if rank % 20 == 7:
        return "marginals"
    if rank < BIG_RANKS and rank % 5 == 2:
        return "big"
    if rank % 5 == 4:
        return "stacked"
    return "small"


def diagnose_catalogue(spec: FusionSpec) -> List[Query]:
    """Scalar engine queries over 1-24 observed sensors, by rank."""
    rng = _shape_rng(4)
    targets, subsets, kinds = [], [], []
    for rank in range(DIAG_CATALOGUE):
        kind = diagnose_category(rank)
        target = _hidden_target(spec, rng)
        if kind == "big":
            subset = subset_in_band(spec, rng, target, *BIG_BAND,
                                    ks=range(12, 19))
        elif kind == "stacked":
            subset = subset_in_band(spec, rng, target, TABLE_LIMIT + 1,
                                    10 ** 12, ks=range(16, N_SENSORS + 1))
        else:
            subset = random_subsets(rng, [int(rng.integers(1, 9))])[0]
        targets.append(target)
        subsets.append(subset)
        kinds.append(kind)
    evidence = evidence_sets(spec, _rng(spec.seed, 4), subsets)
    return [Query("marginals", "", ev) if kind == "marginals"
            else Query("query", t, ev)
            for t, ev, kind in zip(targets, evidence, kinds)]


def diagnose_round(spec: FusionSpec) -> np.ndarray:
    """Catalogue ranks in op order; every round replays the same list."""
    return zipf_ranks(_shape_rng(5), DIAG_CATALOGUE, DIAG_ZIPF, DIAG_ROUND)


@dataclass(frozen=True)
class Ranking:
    target: str
    actions: Tuple[str, ...]
    utilities: Tuple[Tuple[Tuple[str, str], float], ...]
    evidence: Evidence
    candidates: Tuple[str, ...]


def voi_round(spec: FusionSpec, index: int) -> List[Ranking]:
    """Round ``index`` of rankings: each observed-sensor count of
    ``VOI_COUNTS`` once, with a hidden target, a seeded utility table and
    every unobserved sensor as a candidate."""
    rng = _shape_rng(6, index)
    values = _rng(spec.seed, 6, index)
    counts = rng.permutation(VOI_COUNTS)
    evidence = evidence_sets(spec, values, random_subsets(rng, counts))
    ranking: List[Ranking] = []
    for ev in evidence:
        target = _hidden_target(spec, rng)
        node = spec.node(target)
        n_actions = int(rng.integers(2, 4))
        actions = tuple(f"a{i}" for i in range(n_actions))
        utility = np.round(values.uniform(-10.0, 10.0,
                                          (n_actions, node.card)), 3)
        utilities = tuple(((a, s), float(utility[i, j]))
                          for i, a in enumerate(actions)
                          for j, s in enumerate(node.states))
        candidates = tuple(s for s in spec.sensor_names if s not in ev)
        ranking.append(Ranking(target, actions, utilities, ev, candidates))
    return ranking


def campaign_seed(seed: int, index: int) -> int:
    """Campaign seed of op ``index`` (``-1``: the untimed warm-up)."""
    return int(_rng(seed, 7, index + 1).integers(0, 2 ** 31))
