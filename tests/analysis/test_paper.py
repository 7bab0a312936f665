"""The paper registry regenerates the committed records byte for byte."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.paper import ARTIFACTS, HATCHED, record_path
from repro.core import CONFIG_8E
from repro.core.pcu import PrivilegeCheckUnit

REPO = Path(__file__).resolve().parents[2]

#: The artifacts that run in about a second each; CI's paper-tables job
#: regenerates all twelve.
CHEAP = ("table1", "table4", "table5", "table6", "case3", "scan")

#: ``paper``'s escape hatches: the compiled verdict plan, or the block
#: executor, turned off.  Neither may change a record.
HATCHES = {
    "slow-path": replace(CONFIG_8E, fast_path=False),
    "no-block-cache": replace(CONFIG_8E, block_summaries=False),
}

CASES = [pytest.param(name, None, id=name) for name in CHEAP] + [
    pytest.param(name, hatch, id="%s-%s" % (name, hatch))
    for hatch in HATCHES for name in CHEAP if name in HATCHED]


@pytest.fixture(scope="module")
def cheap():
    return {name: ARTIFACTS[name]() for name in CHEAP}


@pytest.mark.parametrize("name, hatch", CASES)
def test_artifact_reproduces_its_committed_records(cheap, name, hatch):
    result = cheap[name] if hatch is None else ARTIFACTS[name](HATCHES[hatch])
    assert result.failed == []
    for experiment in result.experiments:
        committed = (REPO / record_path(experiment)).read_bytes()
        assert (experiment.render() + "\n").encode("utf-8") == committed


class _PcuBuilt(Exception):
    """Stops an artifact at the first PCU it builds."""


@pytest.mark.parametrize("hatch", HATCHES)
@pytest.mark.parametrize("name", HATCHED)
def test_hatched_artifact_builds_its_pcu_under_the_hatch(monkeypatch, name,
                                                         hatch):
    """A hatch leaves every record unchanged by design, so the records
    cannot show that an artifact passed the hatch on; the config its
    PCU is built with does (the system builders may adjust its other
    fields to the ISA).  The run stops there, before any simulation."""
    built = []

    def build(self, isa_map, config, trusted_memory):
        built.append(config)
        raise _PcuBuilt

    monkeypatch.setattr(PrivilegeCheckUnit, "__init__", build)
    with pytest.raises(_PcuBuilt):
        ARTIFACTS[name](HATCHES[hatch])
    [config] = built
    assert (config.fast_path, config.block_summaries) \
        == (HATCHES[hatch].fast_path, HATCHES[hatch].block_summaries)


def test_cheap_artifacts_write_ten_records(cheap):
    records = {record_path(experiment)
               for result in cheap.values() for experiment in result.experiments}
    assert len(records) == 10


def test_registry_names_every_artifact():
    assert list(ARTIFACTS) == [
        "table1", "table4", "table5", "table6", "fig5", "fig6", "fig7",
        "fig8", "hitrate", "case3", "scan", "ablations",
    ]
    assert HATCHED == ("table4", "table5", "fig5", "fig6", "fig7", "fig8",
                       "hitrate", "case3")
