import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import radstein


def test_public_names_resolve():
    for name in radstein.__all__:
        assert getattr(radstein, name) is not None


def test_public_names_are_pinned():
    # Any change to the public API shows up as a diff of this list.
    assert sorted(radstein.__all__) == [
        "BoundReport",
        "ChaosExpansion",
        "DistanceResult",
        "DistributionTable",
        "FunctionalTable",
        "GradientField",
        "J2_RATE_CONSTANT",
        "Kernel",
        "ProbabilityModel",
        "SteinSolution",
        "TargetSet",
        "bernoulli_bound",
        "build_model",
        "check_integration_by_parts",
        "covariance",
        "decompose",
        "distribution",
        "divergence",
        "expectation",
        "forward_diff",
        "gradient_chaos",
        "gradient_pathwise",
        "inner_product",
        "iterated_gradient",
        "j1_bound",
        "j2_bound",
        "j2_example",
        "j2_example_kernel",
        "j2_example_machinery",
        "jm_bound",
        "main_bound",
        "main_bound_reduced",
        "multiply",
        "norm",
        "norm_sq",
        "ou_operator",
        "poisson_pmf",
        "poisson_set_prob",
        "pseudo_inverse",
        "run_verification",
        "second_forward_diff",
        "second_order_bound",
        "slice_kernel",
        "solve",
        "stein_factors",
        "to_table",
        "tv_exact",
        "tv_monte_carlo",
        "variance",
        "w1_exact",
        "wasserstein_bound",
    ]


def test_version_metadata():
    import importlib.metadata

    try:
        version = importlib.metadata.version("radstein")
    except importlib.metadata.PackageNotFoundError:
        return  # running from a source tree without installation
    assert version


def test_only_model_calls_math_fsum():
    # How a sum is rounded is decided in one module; every other module sums
    # through stable_sum, stable_sums, run_sums or sums_by_key.
    callers = set()
    for path in pathlib.Path(radstein.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = isinstance(node, ast.Attribute) and node.attr == "fsum"
            imported = isinstance(node, ast.ImportFrom) and node.module == "math"
            if named or (imported and any(a.name == "fsum" for a in node.names)):
                callers.add(path.name)
    assert callers == {"model.py"}


def test_only_model_decides_integers_and_freezes_arrays():
    # What counts as an integer index, order or count, and how an array is
    # made read-only, are decided in one module; every other module calls
    # model._integer and model._frozen.
    callers = set()
    for path in pathlib.Path(radstein.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            index = (
                isinstance(node, ast.Attribute)
                and node.attr == "index"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "operator"
            frozen = (
                isinstance(node, ast.Attribute)
                and node.attr == "writeable"
                and isinstance(node.ctx, ast.Store)
            )
            if index or frozen or (imported and any(a.name == "index" for a in node.names)):
                callers.add(path.name)
    assert callers == {"model.py"}


def test_traced_benchmark_still_binds_every_name():
    # The benchmark's tracer wraps functions by "<module>.<function>" name;
    # bind() raises AttributeError once the package drops one of them.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(spans))
    for label in spans.TRACED:
        importlib.import_module(f"radstein.{label.split('.')[0]}")
    spans.Tracer().bind()


def test_a_jm_bound_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy 2's first np.unique call imports numpy.ma (about 16 ms); the J_m
    # path takes its slice leads from lead-sorted key rows instead.
    spec = pathlib.Path(__file__).parent / "data" / "golden" / "jm_n30_mc.json"
    argv = ["bound", str(spec), "--out", str(tmp_path / "report.json")]
    code = (
        "import sys\n"
        "from radstein.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(radstein.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
