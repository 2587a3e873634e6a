import math
from types import SimpleNamespace

from resgame import verify


def test_suites_are_the_check_functions_in_order():
    # the names are the report keys and, through crc32, the suites' seeds
    assert [name for name, _ in verify.SUITES] == [
        "laplacian-structure",
        "resistance-routes",
        "grounded-vs-extended",
        "rayleigh-monotonicity",
        "gain-monotonicity",
        "h2-oracle-law2",
        "h2-oracle-law1-undefended",
        "lyapunov-blocks",
        "law1-closed-form",
        "law2-no-ne",
        "payoff-structure",
        "attack-monotonicity",
        "center-predictions",
        "certified-rows",
    ]


def test_nan_value_fails_its_bound(monkeypatch):
    monkeypatch.setattr(verify, "h2_energy_oracle", lambda s: SimpleNamespace(value_sq=math.nan))
    results = verify.run_suites(trials=1)
    assert results["h2-oracle-law2"].startswith("fail: invariant 'h2-closed-vs-oracle-law2'")
