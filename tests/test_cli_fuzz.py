"""Mutation fuzzing of ``radstein bound`` specs: whatever a field of a valid
spec becomes, the command exits 0, 2, 3 or 4 and never raises."""

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radstein.cli import main

VALID_SPECS = [
    {
        "model": {"p": [0.5, 0.5, 0.5, 0.5]},
        "functional": {"chaos": {"mean": 2.0, "kernels": [[[1], 1.0], [[2, 3], 0.5]]}},
        "lambda": "mean",
        "bounds": ["main", "wasserstein"],
    },
    {
        "model": {"p": [0.1, 0.15, 0.2, 0.1, 0.05, 0.3]},
        "functional": {"bernoulli": {}},
        "lambda": 0.6,
        "bounds": ["bernoulli", "j1", "main_reduced", "second_order"],
        "format": "csv",
    },
    {
        "model": {"p": [0.5] * 6},
        "functional": {"chaos": {"mean": 1.0, "kernels": [[[1, 2], 0.5]]}},
        "lambda": "variance",
        "bounds": ["j2", "jm"],
    },
    {
        "model": {"p": [0.5] * 30},
        "functional": {"chaos": {"mean": 1.0, "kernels": [[[1, 2], 0.5]]}},
        "bounds": ["jm", "j2"],
        "mc_samples": 10000,
        "seed": 4,
    },
    {"functional": {"j2_example": {"n": 6}}, "lambda": "variance"},
]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from([0.5, -0.5, 1e308, -1e308]),
    st.integers(-3, 40),
    st.builds(lambda e, sign: sign * 10**e, st.integers(0, 400), st.sampled_from([1, -1])),
)
JUNK = SCALARS | st.one_of(
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
    st.lists(st.lists(SCALARS, max_size=3), max_size=2),
)


def paths(node, prefix=()):
    """The (key, ..., key) paths to the top-level fields and to the scalars
    of a JSON document; of a list only the first and last items, so long
    vectors do not crowd out the other fields."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
        items = items[:1] + items[1:][-1:]
    else:
        return []
    found = []
    for key, child in items:
        if not prefix or not isinstance(child, (dict, list)):
            found.append(prefix + (key,))
        found += paths(child, prefix + (key,))
    return found


def set_at(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def affordable(doc) -> bool:
    """Runs that stay small: at most 40 coordinates, 20,000 Monte Carlo
    samples, and no j2_example enumeration beyond 2^16 outcomes."""
    model = doc.get("model")
    p = model.get("p") if isinstance(model, dict) else None
    functional = doc.get("functional")
    example = functional.get("j2_example") if isinstance(functional, dict) else None
    n = example.get("n") if isinstance(example, dict) else None
    mc_samples = doc.get("mc_samples")
    return (
        not (isinstance(p, list) and len(p) > 40)
        and not (type(mc_samples) is int and mc_samples > 20_000)
        and not (type(n) is int and 16 < n <= 24)
    )


@settings(max_examples=800, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_spec_exits_with_a_documented_code(tmp_path_factory, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID_SPECS)))
    for _ in range(data.draw(st.integers(1, 2))):
        set_at(doc, data.draw(st.sampled_from(paths(doc))), data.draw(JUNK))
    assume(affordable(doc))
    spec = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    report = spec.with_name("fuzz-report")
    assert main(["bound", str(spec), "--out", str(report)]) in (0, 2, 3, 4)


@pytest.mark.parametrize("doc", VALID_SPECS)
def test_unmutated_specs_reach_a_report(tmp_path, doc):
    # The j2_example law misses the integers, so its row is not dominated (4).
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bound", str(spec), "--out", str(tmp_path / "report")]) in (0, 4)
