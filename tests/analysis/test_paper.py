"""The paper registry regenerates the committed records byte for byte."""

from pathlib import Path

import pytest

from repro.analysis.paper import ARTIFACTS, record_path

REPO = Path(__file__).resolve().parents[2]

#: The artifacts that run in about a second each; CI's paper-tables job
#: regenerates all twelve.
CHEAP = ("table1", "table4", "table5", "table6", "case3", "scan")


@pytest.fixture(scope="module")
def cheap():
    return {name: ARTIFACTS[name]() for name in CHEAP}


@pytest.mark.parametrize("name", CHEAP)
def test_artifact_reproduces_its_committed_records(cheap, name):
    result = cheap[name]
    assert result.failed == []
    for experiment in result.experiments:
        committed = (REPO / record_path(experiment)).read_bytes()
        assert (experiment.render() + "\n").encode("utf-8") == committed


def test_cheap_artifacts_write_ten_records(cheap):
    records = {record_path(experiment)
               for result in cheap.values() for experiment in result.experiments}
    assert len(records) == 10


def test_registry_names_every_artifact():
    assert list(ARTIFACTS) == [
        "table1", "table4", "table5", "table6", "fig5", "fig6", "fig7",
        "fig8", "hitrate", "case3", "scan", "ablations",
    ]
