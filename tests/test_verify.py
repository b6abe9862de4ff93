"""The verify runner: process stores emptied at the start of each check, a
check that raises reported as that check's error, and the chromatic
route's f_k held against the semilattice's."""

import json

import eulerpart.bonds as bonds_module
import eulerpart.trails as trails_module
import eulerpart.veblen as veblen_module
import eulerpart.verify as verify_module
from eulerpart.cli import main
from eulerpart.verify import (
    ALL_CHECKS,
    VerifyConfig,
    check_cancellation,
    check_charpoly_three_routes,
    check_martin_chromatic_identity,
    check_martin_evaluations,
    run_verification_suite,
)


def _bareiss_plus_one(monkeypatch):
    real = trails_module._bareiss
    monkeypatch.setattr(trails_module, "_bareiss", lambda m: real(m) + 1)


def _circuits_doubled(monkeypatch):
    """A fault below the component store that raises nowhere: every block
    coefficient is doubled, which keeps each aggregated coefficient an
    integer."""
    real = veblen_module._count_circuits_all_orientations
    monkeypatch.setattr(veblen_module, "_count_circuits_all_orientations", lambda pairs: 2 * real(pairs))


def test_a_fault_planted_after_a_warm_check_is_called(monkeypatch):
    """The semilattice keeps its block counts for one call only, and the
    component store, which outlives a call and is bound only to ``weight``,
    is emptied when a check starts; so a fault planted below either after
    a warm run still fails the check."""
    config = VerifyConfig(max_edges=4)
    checks = [check_martin_evaluations, check_cancellation, check_charpoly_three_routes]
    for check in checks:
        assert check(config).ok
    _bareiss_plus_one(monkeypatch)
    assert not check_martin_evaluations(config).ok
    assert not check_cancellation(config).ok
    monkeypatch.undo()
    assert check_charpoly_three_routes(config).ok
    _circuits_doubled(monkeypatch)
    assert not check_charpoly_three_routes(config).ok


def test_a_run_empties_the_stores_at_each_check(monkeypatch):
    """A warm run, then faults below the BEST kernel and the component
    store: the next run fails both checks, and it empties the stores once
    per check."""
    checks = [check_martin_evaluations, check_charpoly_three_routes]
    monkeypatch.setattr(verify_module, "ALL_CHECKS", checks)
    config = VerifyConfig(max_edges=4)
    status, report = run_verification_suite(config)
    assert status == 0
    _bareiss_plus_one(monkeypatch)
    _circuits_doubled(monkeypatch)
    cleared = []
    real_clear = verify_module.clear_process_stores
    monkeypatch.setattr(verify_module, "clear_process_stores", lambda: cleared.append(1) or real_clear())
    status, report = run_verification_suite(config)
    assert status == 1
    assert [c["ok"] for c in report["checks"]] == [False, False]
    assert cleared == [1, 1]


def test_a_check_that_raises_is_reported_and_the_run_goes_on(monkeypatch, capsys):
    """One circuit too many per block makes a Harary-Sachs coefficient
    non-integral, and the route raises inside ``charpoly-three-routes``:
    verify reports that check's error, runs every other check and exits 1."""
    real = veblen_module._count_circuits_all_orientations
    monkeypatch.setattr(veblen_module, "_count_circuits_all_orientations", lambda pairs: real(pairs) + 1)
    status = main(["verify", "--max-edges", "4", "--max-vertices", "3", "--format", "json"])
    assert status == 1
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert [c["name"] for c in checks] == [c.name for c in ALL_CHECKS]
    assert len(checks) == 31
    charpoly = checks[[c.name for c in ALL_CHECKS].index("charpoly-three-routes")]
    assert not charpoly["ok"]
    assert charpoly["details"]["error"].startswith(
        "AssertionError: non-integral aggregated coefficient"
    )
    assert all("error" not in c["details"] for c in checks if c is not charpoly)


def test_identity_check_catches_the_route_without_its_sign(monkeypatch):
    """chi(G; -t) = sum_j (-1)^j c_j t(t+1)...(t+j-1): with the (-1)^j
    dropped, the chromatic route's f_k leave the semilattice's and
    ``martin-chromatic-identity`` fails."""
    config = VerifyConfig(max_edges=4)
    assert check_martin_chromatic_identity(config).ok
    real = bonds_module._independent_partition_counts

    def unsigned(adj, budget):
        counts, listed = real(adj, budget)
        return [(-1) ** j * c for j, c in enumerate(counts)], listed

    monkeypatch.setattr(bonds_module, "_independent_partition_counts", unsigned)
    result = check_martin_chromatic_identity(config)
    assert not result.ok and result.details["failures"]
