"""The README's library quick tour runs as written and gives the results it
states, and the decision results are plain values: equal decisions compare
equal, and no field can be reassigned."""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pompeiu import (Ball, build_coset_space, build_group, enumerate_all, euclid_decide,
                     pompeiu_convolution, pompeiu_oracle, pompeiu_spectral,
                     radial_shortcut, spherical_functions)

README = Path(__file__).resolve().parent.parent / "README.md"


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
