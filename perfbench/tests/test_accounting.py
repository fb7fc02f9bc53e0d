"""Failure accounting: a bad answer or a raised error is a failed op,
never a crash of the run."""

import copy
import json

import figures
import inputs
import reference
import run


def _doc(q, posterior, tier="exact", stale=False, error=0.0):
    return json.dumps({"target": q.target, "posterior": posterior,
                       "tier": tier, "stale": stale,
                       "estimated_error": error}).encode()


def test_check_serve_failure_kinds():
    spec = inputs.fusion_spec(0)
    catalogue = inputs.serve_catalogue(spec)
    ref = reference.FusionReference(spec)
    plain = next(i for i, q in enumerate(catalogue) if q.error_budget < 0)
    budgeted = next(i for i, q in enumerate(catalogue)
                    if q.error_budget >= 0)
    good = ref.query(catalogue[plain].target, catalogue[plain].evidence)
    off = {k: v + (0.01 if j == 0 else -0.01 / (len(good) - 1))
           for j, (k, v) in enumerate(good.items())}
    bgood = ref.query(catalogue[budgeted].target,
                      catalogue[budgeted].evidence)
    budget = catalogue[budgeted].error_budget
    q, qb = catalogue[plain], catalogue[budgeted]
    records = [
        (plain, 200, _doc(q, good), 0.001, "a"),                   # ok
        (plain, 200, _doc(q, good, tier="cache"), 0.001, "b"),     # ok
        (plain, 200, _doc(q, off), 0.001, "c"),                    # wrong
        (plain, 200, _doc(q, off, tier="approximate", error=0.01), 0.001,
         "d"),                                                     # ok: 6x
        (plain, 200, _doc(q, off, tier="approximate", error=0.001), 0.001,
         "e"),                                                     # wrong
        (budgeted, 200, _doc(qb, bgood, tier="approximate",
                             error=budget * 2), 0.001, "f"),       # over budget
        (plain, 200, _doc(q, good, tier="stale", stale=True, error=None),
         0.001, "g"),                                              # stale
        (plain, 429, b"{}", 0.001, "h"),
        (plain, 500, b"{}", 0.001, "i"),
        (plain, 0, b"", 0.001, "j"),                               # exception
    ]
    failed, wrong, tiers = run.check_serve(spec, catalogue, records)
    assert wrong == 3
    assert failed == 3 + 4
    assert tiers == {"exact": 2, "cache": 1, "approximate": 3, "stale": 1}


class Flaky:
    """An engine that raises on its first query and corrupts its second."""

    def __init__(self, inner):
        self.inner = inner
        self.stats = inner.stats
        self.calls = 0

    def query(self, target, evidence):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected")
        out = self.inner.query(target, evidence)
        if self.calls == 2:
            out = {k: v * 0.5 for k, v in out.items()}
        return out

    def marginals(self, evidence):
        return self.inner.marginals(evidence)


def test_diagnose_counts_raised_and_wrong_ops():
    import child

    runner = child.Diagnose(0)
    runner.round = runner.round[:40]
    runner.engine = Flaky(runner.engine)
    result = runner.run(0.0)
    assert result["attempted"] == 40
    assert result["wrong"] >= 1
    assert result["failed"] == 1 + result["wrong"]


def test_campaign_report_check():
    import child

    runner = child.Campaign(0)
    report = runner.campaign.run_campaign(
        runner.config(1, workers=1, backend="serial"))
    expected = reference.table1_diagnostic()
    assert runner.report_ok(report, expected)
    skewed = copy.copy(report)
    skewed.diagnostic_reference = dict(report.diagnostic_reference)
    skewed.diagnostic_reference["car"] = {
        k: v + 1e-9 for k, v in report.diagnostic_reference["car"].items()}
    assert not runner.report_ok(skewed, expected)
    short = copy.copy(report)
    short.cells = report.cells[:-1]
    assert not runner.report_ok(short, expected)


def test_block_rates_take_medians():
    marks = [(0.0, 0.0, 0), (1.0, 0.5, 100), (2.0, 1.0, 200),
             (4.0, 2.0, 300)]
    rate, cpu_ms = figures.block_rates(marks)
    assert rate == 100.0
    assert cpu_ms == 5.0
    assert figures.percentile([1, 2, 3, 4, 5], 50) == 3
    assert figures.percentile(list(range(11)), 90) == 9.0
