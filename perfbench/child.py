"""One workload in a fresh interpreter: set up, report READY, run, check.

Usage (from the repository root; ``run.py`` starts it)::

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only]

The parent times the interval from starting this process to the READY
line as the workload's set-up.  After READY the child runs whole rounds
of operations until ``SECONDS`` have passed, checks every answer against
``reference.py`` outside the timed phase, and prints one ``RESULT`` line
of JSON.  With TRACE=1 the program's public boundaries are wrapped first
(``tracer.py``) and the result carries the per-layer figures.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

import figures
import inputs
import reference
from tracer import SpanLog, mean, median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where traced runs leave their spans (JSONL), inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TOL = 1e-9
#: Campaigns per throughput block.
CAMPAIGN_BLOCK = 10


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    import repro
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        raise SystemExit(f"repro imported from {where}, not from the checkout")
    return repro


# -- diagnose-stream --------------------------------------------------------

class Diagnose:
    """Scalar engine queries on one default engine per round."""

    def __init__(self, seed: int):
        from repro.bayesnet.engine import CompiledNetwork
        self.CompiledNetwork = CompiledNetwork
        self.spec = inputs.fusion_spec(seed)
        self.catalogue = inputs.diagnose_catalogue(self.spec)
        self.round = [int(r) for r in inputs.diagnose_round(self.spec)]
        self.network = inputs.build_network(self.spec)
        self.engine = CompiledNetwork(self.network).prewarm()
        self.seed = seed

    def run(self, seconds: float, log: SpanLog = None) -> dict:
        lat: List[float] = []
        answers: List[Tuple[int, object]] = []
        stats = []
        errors = 0
        engine, self.engine = self.engine, None
        clock = time.perf_counter
        t0 = clock()
        marks = [(t0, _cpu(), 0)]
        while True:
            if stats:
                # A fresh default engine per round; drop the old one
                # first so only one engine's caches are resident.
                engine = None
                engine = self.CompiledNetwork(self.network).prewarm()
            stats.append(engine.stats)
            for rank in self.round:
                q = self.catalogue[rank]
                s = clock()
                try:
                    out = engine.query(q.target, q.evidence) \
                        if q.kind == "query" else engine.marginals(q.evidence)
                except Exception:  # a failed op is counted, not fatal
                    errors += 1
                    continue
                lat.append(clock() - s)
                answers.append((rank, out))
            now = clock()
            marks.append((now, _cpu(), len(lat) + errors))
            if now - t0 >= seconds:
                break
        engine = None
        gc.collect()
        wrong = self.check(answers)
        hits = sum(s.evidence_cache_hits for s in stats)
        looks = hits + sum(s.evidence_cache_misses for s in stats)
        return {"attempted": len(lat) + errors, "failed": errors + wrong,
                "wrong": wrong,
                "e2e": figures.run_figures(lat, marks, _rss_mb()),
                "shares": {"evidence_cache_hit_share": hits / max(looks, 1),
                           "miss_share_above_table_limit":
                               self.share_above_limit(),
                           "rounds": len(stats)},
                "stats": stats}

    def share_above_limit(self) -> float:
        """Share of a round's distinct scalar queries (its cache misses)
        whose joint exceeds the engine's table limit."""
        distinct = [self.catalogue[r] for r in set(self.round)]
        queries = [q for q in distinct if q.kind == "query"]
        above = sum(inputs.table_entries(
            self.spec, q.target, [int(n[1:]) for n in q.evidence])
            > inputs.TABLE_LIMIT for q in queries)
        return above / len(queries)

    def check(self, answers) -> int:
        """Every distinct query against the reference; repeats against
        the first answer; marginals on a seeded subset."""
        ref = reference.FusionReference(self.spec)
        first: Dict[int, object] = {}
        wrong = 0
        for rank, out in answers:
            if rank in first:
                wrong += out != first[rank]
                continue
            first[rank] = out
        rng = np.random.default_rng([self.seed, 99])
        marg = sorted(r for r in first
                      if self.catalogue[r].kind == "marginals")
        picked = set(rng.permutation(marg)[:4].tolist()) if marg else set()
        for rank, out in first.items():
            q = self.catalogue[rank]
            if q.kind == "query":
                wrong += reference.max_abs_diff(
                    out, ref.query(q.target, q.evidence)) > TOL
            elif rank in picked:
                exp = ref.marginals(q.evidence)
                wrong += any(reference.max_abs_diff(out[n], exp[n]) > TOL
                             for n in exp)
        return wrong

    def layers(self, log: SpanLog, result: dict) -> Dict[str, float]:
        return engine_layers(log, result["stats"], result["attempted"])


# -- voi-rank -----------------------------------------------------------------

class Voi:
    """Value-of-information rankings on one default engine."""

    def __init__(self, seed: int):
        from repro.bayesnet.engine import CompiledNetwork
        from repro.information.value_of_information import (
            DecisionProblem, rank_observables)
        self.rank_observables = rank_observables
        self.Problem = DecisionProblem
        self.spec = inputs.fusion_spec(seed)
        self.network = inputs.build_network(self.spec)
        self.engine = CompiledNetwork(self.network).prewarm()
        self.seed = seed

    def run(self, seconds: float, log: SpanLog = None) -> dict:
        lat: List[float] = []
        done = []
        errors = 0
        clock = time.perf_counter
        t0 = clock()
        marks = [(t0, _cpu(), 0)]
        for index in itertools.count():
            for rk in inputs.voi_round(self.spec, index):
                problem = self.Problem(rk.target, rk.actions,
                                       dict(rk.utilities))
                s = clock()
                try:
                    ranking = self.rank_observables(
                        self.engine, problem, list(rk.candidates),
                        rk.evidence)
                except Exception:  # a failed op is counted, not fatal
                    errors += 1
                    continue
                lat.append(clock() - s)
                done.append((rk, ranking))
                if log is not None:
                    log.add("voi.rank", s, s + lat[-1])
            now = clock()
            marks.append((now, _cpu(), len(lat) + errors))
            if now - t0 >= seconds:
                break
        wrong = self.check(done)
        return {"attempted": len(lat) + errors, "failed": errors + wrong,
                "wrong": wrong,
                "e2e": figures.run_figures(lat, marks, _rss_mb()),
                "shares": self.shares(done),
                "stats": [self.engine.stats]}

    def shares(self, done) -> Dict[str, float]:
        """Signatures per ``query_batch`` (one per candidate) and the share
        of batch rows whose signature's joint exceeds the table limit."""
        rows = above = 0
        for rk, _ in done:
            observed = [int(n[1:]) for n in rk.evidence]
            for cand in rk.candidates:
                card = self.spec.node(cand).card
                rows += card
                above += card * (inputs.table_entries(
                    self.spec, rk.target, observed + [int(cand[1:])])
                    > inputs.TABLE_LIMIT)
        return {"rankings": len(done),
                "signatures_per_query_batch":
                    mean([len(rk.candidates) for rk, _ in done]),
                "row_share_above_table_limit": above / max(rows, 1)}

    def check(self, done) -> int:
        ref = reference.FusionReference(self.spec)
        rng = np.random.default_rng([self.seed, 98])
        subset = set(rng.choice(len(done), size=min(3, len(done)),
                                replace=False).tolist())
        wrong = 0
        for i, (rk, ranking) in enumerate(done):
            utilities = dict(rk.utilities)
            scores = [v for _, v in ranking]
            bad = sorted(name for name, _ in ranking) != sorted(rk.candidates)
            bad |= any(a < b for a, b in zip(scores, scores[1:]))
            ceiling = reference.evpi(ref, rk.target, rk.actions, utilities,
                                     rk.evidence)
            bad |= any(v < 0.0 or v > ceiling + TOL for v in scores)
            if i in subset:
                bad |= any(abs(v - reference.evo(
                    ref, rk.target, rk.actions, utilities, rk.evidence,
                    name)) > TOL for name, v in ranking)
            wrong += bool(bad)
        return wrong

    def layers(self, log: SpanLog, result: dict) -> Dict[str, float]:
        out = engine_layers(log, result["stats"], result["attempted"])
        ranks = log.named("voi.rank")
        rows = log.named("engine.query_batch")
        scalar = log.named("engine.query")
        per_rank_rows, per_rank_scalar = [], []
        for r in ranks:
            per_rank_rows.append(sum(s[4][0] for s in rows
                                     if r[2] <= s[2] <= r[3]))
            per_rank_scalar.append(sum(1 for s in scalar
                                       if r[2] <= s[2] <= r[3]))
        out["information.value_of_information.rows_per_rank"] = \
            mean(per_rank_rows)
        out["information.value_of_information.scalar_queries_per_rank"] = \
            mean(per_rank_scalar)
        return out


# -- campaign -------------------------------------------------------------------

class Campaign:
    """Fault-injection campaigns on the 2-worker process backend."""

    def __init__(self, seed: int):
        from repro.robustness import campaign
        # Called through the module, so the traced run's wrapper applies.
        self.campaign = campaign
        self.faults = tuple(campaign.FAULT_CATALOG)
        self.seed = seed

    def config(self, seed: int, **kw):
        params = dict(seed=seed, trials=inputs.CAMPAIGN_TRIALS,
                      fault_names=self.faults,
                      intensities=inputs.CAMPAIGN_INTENSITIES,
                      workers=2, backend="process")
        params.update(kw)
        return self.campaign.CampaignConfig(**params)

    def warm(self) -> None:
        """One campaign before timing: the first pool start in a process
        pays one-off import and page-fault costs a user's later
        campaigns do not."""
        self.campaign.run_campaign(
            self.config(inputs.campaign_seed(self.seed, -1)))

    def run(self, seconds: float, log: SpanLog = None) -> dict:
        lat: List[float] = []
        wrong = errors = 0
        expected = reference.table1_diagnostic()
        clock = time.perf_counter
        t0 = clock()
        marks = [(t0, _cpu(), 0)]
        ops = itertools.count()
        while True:
            for _ in range(CAMPAIGN_BLOCK):
                config = self.config(inputs.campaign_seed(self.seed,
                                                          next(ops)))
                s = clock()
                try:
                    report = self.campaign.run_campaign(config)
                except Exception:  # a failed op is counted, not fatal
                    errors += 1
                    continue
                lat.append(clock() - s)
                wrong += not self.report_ok(report, expected)
            now = clock()
            marks.append((now, _cpu(), len(lat) + errors))
            if now - t0 >= seconds:
                break
        # Byte-identity: a serial and a process run of one seed.
        seed = inputs.campaign_seed(self.seed, 0)
        serial = self.campaign.run_campaign(
            self.config(seed, workers=1, backend="serial")).to_json()
        process = self.campaign.run_campaign(self.config(seed)).to_json()
        identical = serial == process
        rss = _rss_mb() + _rss_mb(resource.RUSAGE_CHILDREN)
        return {"attempted": len(lat) + errors, "failed": errors + wrong,
                "wrong": wrong, "identical": identical,
                "e2e": figures.run_figures(lat, marks, rss),
                "shares": {"campaigns": len(lat)}}

    def report_ok(self, report, expected) -> bool:
        ok = len(report.cells) == len(self.faults) * len(
            inputs.CAMPAIGN_INTENSITIES)
        for cell in report.cells:
            ok &= cell.single.n_encounters == inputs.CAMPAIGN_TRIALS
            ok &= cell.supervised.n_encounters == inputs.CAMPAIGN_TRIALS
        ref = report.diagnostic_reference
        ok &= set(ref) == set(expected)
        for label, post in expected.items():
            ok &= reference.max_abs_diff(ref.get(label, {}), post) <= 1e-12
        return bool(ok)

    def layers(self, log: SpanLog, result: dict) -> Dict[str, float]:
        maps = log.named("parallel.map")
        runs = log.named("campaign.run")
        refs = log.named("campaign.reference")
        packs = log.named("arena.pack")
        out: Dict[str, float] = {}
        out["parallel.executor.map_ms"] = median(
            [1e3 * (s[3] - s[2]) for s in maps])
        out["parallel.executor.chunks"] = mean([s[4]["chunks"] for s in maps])
        worker_cpu = [s[4]["worker_cpu"] for s in maps]
        out["parallel.executor.worker_cpu_ms"] = 1e3 * median(worker_cpu)
        out["parallel.executor.efficiency"] = median(
            [s[4]["worker_cpu"] / (2 * (s[3] - s[2])) for s in maps])
        out["parallel.arena.bytes"] = mean([s[4] for s in packs])
        outside = []
        for r in runs:
            inner = sum(m[3] - m[2] for m in maps if r[2] <= m[2] <= r[3])
            outside.append(1e3 * (r[3] - r[2] - inner))
        out["robustness.campaign.outside_map_ms"] = median(outside)
        out["robustness.campaign.reference_ms"] = median(
            [1e3 * (s[3] - s[2]) for s in refs])
        trials = 2 * inputs.CAMPAIGN_TRIALS * len(self.faults) * len(
            inputs.CAMPAIGN_INTENSITIES)
        out["robustness.campaign.trials_per_worker_cpu_s"] = median(
            [trials / c for c in worker_cpu if c > 0])
        return out


# -- traced boundaries ------------------------------------------------------------

def install_engine_wrappers(log: SpanLog) -> None:
    """Spans around the engine and its inference kernels."""
    from repro.bayesnet import engine as engine_mod
    from repro.bayesnet.inference.junction_tree import JunctionTree
    from repro.bayesnet.inference.kernels import CompiledSampler

    cls = engine_mod.CompiledNetwork
    clock = time.perf_counter

    def with_hit_flag(fn, name):
        # The span's extra says whether the evidence cache answered.
        def shim(self, *args, **kwargs):
            hits = self.stats.evidence_cache_hits
            t0 = clock()
            out = fn(self, *args, **kwargs)
            t1 = clock()
            log.add(name, t0, t1, self.stats.evidence_cache_hits > hits)
            return out
        return shim

    cls.query = with_hit_flag(cls.query, "engine.query")
    cls.marginals = with_hit_flag(cls.marginals, "engine.marginals")

    def batch_extra(args, kwargs, out):
        rows = args[2] if len(args) > 2 else kwargs["evidence_rows"]
        return (len(rows), len({frozenset(r) for r in rows}))

    log.wrap(cls, "query_batch", "engine.query_batch", batch_extra)
    log.wrap(engine_mod, "variable_elimination", "ve",
             lambda a, k, out: int(out.table.nbytes))
    log.wrap(JunctionTree, "calibrate", "jt.calibrate")
    log.wrap(JunctionTree, "calibrate_batch", "jt.calibrate_batch",
             lambda a, k, out: len(a[1]))
    log.wrap(CompiledSampler, "likelihood_matrix", "lw",
             lambda a, k, out: int(a[3] if len(a) > 3 else k["n"]))


def engine_layers(log: SpanLog, stats, ops: int) -> Dict[str, float]:
    """Engine and kernel figures from spans plus the ``EngineStats`` of
    the run's engines (none for the server child, whose pool engines the
    benchmark does not hold)."""
    out: Dict[str, float] = {}
    q = log.named("engine.query")
    hits = [s for s in q if s[4]]
    out["bayesnet.engine.query_hit_us"] = median(
        [1e6 * (s[3] - s[2]) for s in hits])
    out["bayesnet.engine.query_miss_ms"] = median(
        [1e3 * (s[3] - s[2]) for s in q if not s[4]])
    out["bayesnet.engine.cache_hit_ratio"] = len(hits) / len(q) if q else 0.0
    out["bayesnet.engine.compile_ms"] = mean(
        [1e3 * s.compile_seconds for s in stats])
    out["bayesnet.engine.plan_misses"] = mean([s.plan_misses for s in stats])
    out["bayesnet.engine.marginals_ms"] = median(
        [1e3 * (s[3] - s[2]) for s in log.named("engine.marginals")])
    qb = log.named("engine.query_batch")
    rows = sum(s[4][0] for s in qb)
    out["bayesnet.engine.query_batch_row_us"] = (
        1e6 * sum(s[3] - s[2] for s in qb) / rows if rows else 0.0)
    out["bayesnet.engine.batch_signatures_per_call"] = mean(
        [s[4][1] for s in qb])
    ve = log.named("ve")
    out["bayesnet.inference.variable_elimination.calls"] = len(ve) / ops
    out["bayesnet.inference.variable_elimination.ms"] = \
        1e3 * sum(s[3] - s[2] for s in ve) / ops
    out["bayesnet.inference.variable_elimination.table_mb"] = \
        sum(s[4] for s in ve) / 2 ** 20 / ops
    cb = log.named("jt.calibrate_batch")
    cb_rows = sum(s[4] for s in cb)
    prefix = "bayesnet.inference.junction_tree."
    out[prefix + "calibrate_batch_calls"] = len(cb) / ops
    out[prefix + "calibrate_batch_rows"] = cb_rows / ops
    out[prefix + "calibrate_batch_row_us"] = (
        1e6 * sum(s[3] - s[2] for s in cb) / cb_rows if cb_rows else 0.0)
    out[prefix + "calibrate_ms"] = median(
        [1e3 * (s[3] - s[2]) for s in log.named("jt.calibrate")])
    total = sum(s.messages_total for s in stats)
    recomputed = sum(s.messages_recomputed for s in stats)
    out[prefix + "messages_reused_ratio"] = (
        1.0 - recomputed / total if total else 0.0)
    lw = log.named("lw")
    out["bayesnet.inference.kernels.lw_calls"] = len(lw) / ops
    out["bayesnet.inference.kernels.lw_samples"] = mean([s[4] for s in lw])
    out["bayesnet.inference.kernels.lw_ms"] = median(
        [1e3 * (s[3] - s[2]) for s in lw])
    return out


def install_campaign_wrappers(log: SpanLog) -> None:
    from repro.parallel.arena import FactorArena
    from repro.parallel.executor import ParallelExecutor
    from repro.robustness import campaign as campaign_mod
    from repro.telemetry.metrics import get_registry

    raw = ParallelExecutor.map_with_context
    clock = time.perf_counter

    def map_shim(self, *args, **kwargs):
        before = get_registry().flatten_counters()
        c0, t0 = _children_cpu(), clock()
        out = raw(self, *args, **kwargs)
        t1, c1 = clock(), _children_cpu()
        after = get_registry().flatten_counters()
        chunks = sum(v - before.get(k, 0.0) for k, v in after.items()
                     if k.startswith("repro_parallel_shards_total"))
        log.add("parallel.map", t0, t1,
                {"chunks": chunks, "worker_cpu": c1 - c0})
        return out

    ParallelExecutor.map_with_context = map_shim
    log.wrap(FactorArena, "pack", "arena.pack",
             lambda a, k, out: int(out.nbytes))
    log.wrap(campaign_mod, "run_campaign", "campaign.run")
    log.wrap(campaign_mod, "diagnostic_reference_table",
             "campaign.reference")


WORKLOADS = {"diagnose-stream": Diagnose, "voi-rank": Voi,
             "campaign": Campaign}


def main(argv: List[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    setup_only = "--setup-only" in argv
    import_program()
    runner = WORKLOADS[workload](int(seed))
    print("READY", flush=True)
    if setup_only:
        return 0
    if hasattr(runner, "warm"):
        runner.warm()
    log = None
    if trace == "1":
        log = SpanLog()
        if workload == "campaign":
            install_campaign_wrappers(log)
        else:
            install_engine_wrappers(log)
    result = runner.run(float(seconds), log)
    result["layers"] = {}
    if log is not None:
        result["layers"] = runner.layers(log, result)
        os.makedirs(OUT_DIR, exist_ok=True)
        log.write_jsonl(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    result.pop("stats", None)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
