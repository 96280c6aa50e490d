import ast
import pathlib

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
        "RawTensor",
        "SteinSolution",
        "TargetSet",
        "bernoulli_bound",
        "build_model",
        "check_integration_by_parts",
        "contract",
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
        "symmetrize",
        "to_kernel",
        "to_table",
        "tv_exact",
        "tv_monte_carlo",
        "variance",
        "w1_exact",
        "wasserstein_bound",
        "weighted_contract",
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
