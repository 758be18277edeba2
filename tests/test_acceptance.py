"""Top-level acceptance gate.

One test per criterion, each printing its own pass/fail line so the
verdicts stay visible in the pytest output even when everything is
green. The same callables back `osifl selftest`. Two more tests pin how
the criteria run their protocol runs: through the CLI's grid runner and
one shared memo, and a failed run fails only its own criterion.
"""
import io
import re

import pytest

from osifl import acceptance, cli
from osifl.acceptance import CRITERIA
from osifl.cli import SEED_ENV
from osifl.errors import ProtocolError
from osifl.orchestrator import ServerMemo
from test_config_cli import _count_runs


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[c.cid for c in CRITERIA])
def test_acceptance_criterion(criterion, capsys):
    passed, detail = criterion.fn()
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {criterion.cid} {criterion.title}: {detail}",
              flush=True)
    assert passed, f"{criterion.cid} {criterion.title}: {detail}"


def _details(cids):
    """Each named criterion's detail, with the seconds it took masked."""
    details = {}
    for criterion in CRITERIA:
        if criterion.cid in cids:
            passed, detail = criterion.fn()
            assert passed, detail
            details[criterion.cid] = re.sub(r"\d+(\.\d+)?s\b", "#s", detail)
    return details


def test_grid_criteria_share_one_memo_and_ignore_the_seed_override(
        monkeypatch):
    calls = _count_runs(monkeypatch)
    # A fresh memo, so that test order does not matter.
    monkeypatch.setattr(acceptance, "_MEMO", ServerMemo())
    monkeypatch.setenv(SEED_ENV, "7")
    overridden = _details(("C06", "C07", "C09"))
    # 3 seeds x (OSCAR_IL, OSIFL at p = 0, 2, 5, 10, OSCAR_CEILING, OSIFL
    # at p = 5 with 6 clients): C07 and C09 reuse C06's runs.
    assert len(calls) == 21
    overridden.update(_details(("C08",)))
    assert len(calls) == 23
    monkeypatch.delenv(SEED_ENV)
    # Had the override reached a criterion, these would be new runs.
    assert _details(("C06", "C07", "C08", "C09")) == overridden
    assert len(calls) == 23


def test_a_failed_run_fails_its_criterion_and_the_rest_still_run(
        monkeypatch):
    def broken(method, *args, **kwargs):
        raise ProtocolError(f"{method.value} broke")
        yield

    monkeypatch.setattr(cli, "run_steps", broken)
    monkeypatch.setattr(acceptance, "_MEMO", ServerMemo())
    by_id = {c.cid: c for c in CRITERIA}
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        by_id[cid] for cid in ("C06", "C07", "C08", "C09", "C04")))
    out = io.StringIO()
    assert acceptance.run_all(out) == 1
    lines = out.getvalue().splitlines()
    for line, cid, method in zip(lines, ("C06", "C07", "C08", "C09"),
                                 ("OSCAR_IL", "OSCAR_CEILING", "FEDAVG",
                                  "OSIFL")):
        assert line.startswith(f"[FAIL] {cid} ")
        assert f": run failed: {method} seed=42: {method} broke" in line
    assert lines[4].startswith("[PASS] C04 ")
    assert lines[5] == "1/5 acceptance criteria passed"
