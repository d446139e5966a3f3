"""The README's library quick tour runs as written and gives the results it
states, the README names every export of the package, and the decision
results are plain values: equal decisions compare equal, and no field can
be reassigned."""

import ast
import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pompeiu
from pompeiu import (Ball, build_coset_space, build_group, class_indicator, convolve,
                     enumerate_all, euclid_decide, gelfand_witness, is_gelfand_pair,
                     phi_hom, pompeiu_convolution, pompeiu_oracle, pompeiu_spectral,
                     radial_shortcut, spherical_functions)

README = Path(__file__).resolve().parent.parent / "README.md"
# references the tests compare against, and a wrapper of `space.double_cosets`
NOT_EXPORTED = ("lift_set", "check_function_invariance", "project_biinvariant",
                "ideal_generators", "zero_set", "zero_set_ideal", "double_cosets")


@pytest.fixture(scope="module")
def s3_space():
    g = build_group({"family": "symmetric", "n": 3})
    return build_coset_space(g, [g.element_labels.index("(1 2)")])


@pytest.fixture(scope="module")
def disk_report():
    return euclid_decide(Ball(1.0, 2), (0, 20))


def test_quick_tour_runs_as_written():
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(),
                     re.S).group(1)
    namespace = {}
    exec(compile(tour, "README quick tour", "exec"), namespace)
    chunks = namespace["chunks"]
    assert chunks and sum(len(masks) for masks, _, _ in chunks) == 7


def test_quick_tour_results(s3_space, disk_report):
    assert [f.values for f in spherical_functions(s3_space)] == [
        (1, Fraction(-1, 2)), (1, 1)]
    assert repr(pompeiu_oracle(s3_space, {0, 1})) == (
        "DecisionReport(verdict='Pompeiu', method='oracle', witness=None)")
    summary = enumerate_all(s3_space).summary()
    assert (summary["subsets"], summary["pompeiu"], summary["disagreements"]) == (7, 6, 0)
    first = disk_report.lambda_witnesses[:2]
    assert first == pytest.approx([3.8317059702075, 7.0155866698156], abs=1e-9)


def test_quick_tour_measure_algebra(s3_space):
    g, funcs = s3_space.group, spherical_functions(s3_space)
    mu = class_indicator(s3_space, 1)
    assert g.label(s3_space.double_cosets.representatives[1]) == "(2 3)"
    nu = convolve(mu, mu)
    assert nu.coeffs == (4, 2)
    assert [phi_hom(f, mu) for f in funcs] == [-2, 4]
    assert [phi_hom(f, nu) for f in funcs] == [4, 16]
    assert (is_gelfand_pair(s3_space), gelfand_witness(s3_space)) == (True, None)
    witness = gelfand_witness(build_coset_space(g, []))
    assert witness == (1, 2) and [g.label(x) for x in witness] == ["(2 3)", "(1 2)"]


def test_readme_names_every_export():
    """Every name that `pompeiu/__init__.py` imports is named in the README,
    and every name that its Public API section cites, other than the
    modules, imports from `pompeiu`."""
    tree = ast.parse(Path(pompeiu.__file__).read_text())
    exported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    modules = ["pompeiu"] + [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert len(exported) == 51 and len(modules) == 7
    text = README.read_text()
    assert [name for name in exported if f"`{name}`" not in text] == []
    section = re.search(r"## Public API\n(.*?)\n## ", text, re.S).group(1)
    cited = set(re.findall(r"`(\w+)`", section)) - set(modules)
    assert len(cited) == 51
    for name in cited:
        exec(f"from pompeiu import {name}", {})


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_test_references_are_not_exported(name):
    with pytest.raises(ImportError):
        exec(f"from pompeiu import {name}", {})


@pytest.mark.parametrize("decide", [pompeiu_oracle, pompeiu_spectral,
                                    pompeiu_convolution, radial_shortcut])
@pytest.mark.parametrize("subset", [{0}, {0, 1}, {1, 2}])
def test_single_subset_reports_are_values(decide, subset, s3_space):
    first, second = decide(s3_space, subset), decide(s3_space, subset)
    assert first == second
    if first is not None:
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.verdict = "Pompeiu"


def test_sweep_and_euclid_reports_are_values(s3_space, disk_report):
    sweep = enumerate_all(s3_space)
    assert sweep == enumerate_all(s3_space)
    assert disk_report == euclid_decide(Ball(1.0, 2), (0, 20))
    for report, field in ((sweep, "subsets"), (disk_report, "verdict")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, field, None)
