"""The benchmark tracer (perfbench/tracer.py) wraps the library without
changing it: a traced run reports what an untraced one does, every sweep
passes through its wrapper, and uninstall puts every binding back.  A rename or deletion
of a name the tracer patches fails here rather than in a traced benchmark."""

import importlib.util
import json
import math
from pathlib import Path

from matmono import FunctionModel, criteria, divdiff, expr, gensets, linalg, parse, polynomial

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED = (criteria, gensets, divdiff, linalg, polynomial, expr.FunctionModel, polynomial.Poly)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports() -> list[str]:
    model = FunctionModel(parse("-1/x"), domain=(0.0, math.inf), name="-1/x")
    cfg = criteria.CertifyConfig(samples=50, oracle_trials=50, seed=1)
    report = criteria.certify(model, 2, (0.5, 4.0), "monotone", cfg)
    cube = FunctionModel(parse("x^3"), name="x^3")
    convex = criteria.certify(cube, 2, (0.5, 4.0), "convex", cfg)
    finite = gensets.FiniteFunction.from_model(model, [0.5, 0.8, 1.1, 1.6, 2.3, 3.0, 3.7])
    check = gensets.genset_check(finite, 2, samples=200, seed=1)
    return [json.dumps(r.to_jsonable(), sort_keys=True) for r in (report, convex, check)]


def test_traced_reports_match_and_uninstall_restores_bindings():
    before = {owner: dict(vars(owner)) for owner in PATCHED}
    untraced = _reports()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = _reports()
    finally:
        tracer.uninstall()
    assert traced == untraced
    # every sweep and the level sweep ran through the wrappers
    configs: dict[str, int] = {}
    for report in traced[:2]:
        for rec in json.loads(report)["criteria"]:
            configs[rec["id"]] = configs.get(rec["id"], 0) + rec["configs"]
    assert tracer.configs == configs
    assert tracer.level_sweeps == 1
    # one minimum-eigenvalue call per oracle configuration, passing or failing
    assert tracer.oracle_pairs == configs["matrix-oracle"]
    assert not [u for u in tracer.unreconciled if u.startswith("matrix-oracle")]
    for owner, attrs in before.items():
        now = vars(owner)
        assert [k for k in attrs if now.get(k) is not attrs[k]] == []
