"""Answers computed apart from the program, from the generator's arrays.

Nothing here imports ``repro``: the posteriors come from the CPT arrays
that ``inputs.fusion_spec`` drew, contracted with ``numpy.einsum``.

Sensors are leaves whose parents are all hidden, so an unobserved sensor
sums out to one.  The dense joint P(H) over the hidden variables is
built once; a posterior is then one einsum of P(H) with the likelihood
slice of every observed sensor (and the CPT of a sensor target).

The campaign's diagnostic reference is Bayes rule on the paper's
Table I values, written out here as printed.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from inputs import FusionSpec, Node


class FusionReference:
    def __init__(self, spec: FusionSpec):
        self.spec = spec
        self.axis = {n.name: i for i, n in enumerate(spec.hidden)}
        self._nodes = {n.name: n for n in spec.nodes}
        operands: List = []
        for n in spec.hidden:
            operands += [n.table, [self.axis[p] for p in n.parents]
                         + [self.axis[n.name]]]
        self.joint = np.einsum(*operands, list(range(len(spec.hidden))))

    def _operands(self, evidence: Mapping[str, str]) -> List:
        ops: List = [self.joint, list(range(len(self.spec.hidden)))]
        for name, state in evidence.items():
            node = self._nodes[name]
            if name in self.axis:
                vec = np.zeros(node.card)
                vec[int(state[1:])] = 1.0
                ops += [vec, [self.axis[name]]]
            else:
                ops += [node.table[..., int(state[1:])],
                        [self.axis[p] for p in node.parents]]
        return ops

    def query(self, target: str, evidence: Mapping[str, str]
              ) -> Dict[str, float]:
        """P(target | evidence) for a hidden or a sensor target."""
        node = self._nodes[target]
        ops = self._operands(evidence)
        if target in self.axis:
            out = np.einsum(*ops, [self.axis[target]], optimize=True)
        else:
            label = len(self.spec.hidden)
            ops += [node.table, [self.axis[p] for p in node.parents] + [label]]
            out = np.einsum(*ops, [label], optimize=True)
        total = out.sum()
        return {s: float(out[i] / total) for i, s in enumerate(node.states)}

    def marginals(self, evidence: Mapping[str, str]
                  ) -> Dict[str, Dict[str, float]]:
        """Every node's posterior (observed nodes as point masses)."""
        out: Dict[str, Dict[str, float]] = {}
        for node in self.spec.nodes:
            if node.name in evidence:
                out[node.name] = {s: float(s == evidence[node.name])
                                  for s in node.states}
            else:
                out[node.name] = self.query(node.name, evidence)
        return out


def max_abs_diff(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if set(a) != set(b):
        return float("inf")
    return max(abs(float(a[k]) - float(b[k])) for k in a)


# -- value of information ---------------------------------------------------

def expected_utilities(utilities: Mapping[Tuple[str, str], float],
                       actions: Sequence[str],
                       posterior: Mapping[str, float]) -> float:
    return max(sum(p * utilities[(a, s)] for s, p in posterior.items())
               for a in actions)


def evo(ref: FusionReference, target: str, actions: Sequence[str],
        utilities: Mapping[Tuple[str, str], float],
        evidence: Mapping[str, str], observable: str) -> float:
    """Expected value of observing ``observable`` before deciding."""
    now = expected_utilities(utilities, actions, ref.query(target, evidence))
    obs = ref.query(observable, evidence)
    with_obs = 0.0
    for state, p in obs.items():
        if p > 0.0:
            post = ref.query(target, {**evidence, observable: state})
            with_obs += p * expected_utilities(utilities, actions, post)
    return max(0.0, with_obs - now)


def evpi(ref: FusionReference, target: str, actions: Sequence[str],
         utilities: Mapping[Tuple[str, str], float],
         evidence: Mapping[str, str]) -> float:
    post = ref.query(target, evidence)
    now = expected_utilities(utilities, actions, post)
    perfect = sum(p * max(utilities[(a, s)] for a in actions)
                  for s, p in post.items())
    return max(0.0, perfect - now)


# -- brute force (tests) ------------------------------------------------------

def brute_force(nodes: Sequence[Node], target: str,
                evidence: Mapping[str, str]) -> Dict[str, float]:
    """P(target | evidence) by enumerating every joint assignment."""
    names = [n.name for n in nodes]
    col = {name: i for i, name in enumerate(names)}
    tnode = nodes[col[target]]
    acc = np.zeros(tnode.card)
    for assign in itertools.product(*[range(n.card) for n in nodes]):
        if any(assign[col[k]] != int(v[1:]) for k, v in evidence.items()):
            continue
        p = 1.0
        for n in nodes:
            idx = tuple(assign[col[q]] for q in n.parents) + (assign[col[n.name]],)
            p *= float(n.table[idx])
        acc[assign[col[target]]] += p
    return {s: float(acc[i] / acc.sum()) for i, s in enumerate(tnode.states)}


# -- Table I (campaign) ---------------------------------------------------------

#: The paper's prior and Table I, as printed (the "unknown" row sums to
#: 0.9 and is renormalised, the repair the program documents).
TABLE1_PRIOR = {"car": 0.6, "pedestrian": 0.3, "unknown": 0.1}
TABLE1 = {
    "car": {"car": 0.9, "pedestrian": 0.005, "car/pedestrian": 0.05,
            "none": 0.045},
    "pedestrian": {"car": 0.005, "pedestrian": 0.9, "car/pedestrian": 0.05,
                   "none": 0.045},
    "unknown": {"car": 0.0, "pedestrian": 0.0, "car/pedestrian": 0.2,
                "none": 0.7},
}


def table1_diagnostic() -> Dict[str, Dict[str, float]]:
    """P(ground truth | perception) by Bayes rule on Table I."""
    rows = {t: {o: p / sum(r.values()) for o, p in r.items()}
            for t, r in TABLE1.items()}
    out: Dict[str, Dict[str, float]] = {}
    for o in rows["car"]:
        joint = {t: TABLE1_PRIOR[t] * rows[t][o] for t in TABLE1_PRIOR}
        z = sum(joint.values())
        out[o] = {t: v / z for t, v in joint.items()}
    return out
