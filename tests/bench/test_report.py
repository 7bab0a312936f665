"""Bench trajectory files."""

import json

from repro.bench.report import FORMAT, build_trajectory, write_trajectory


def payload(rig, ips, instructions=1000, cycles=2000.0, wall_s=1.0):
    return {
        "rig": rig,
        "fast_path": True,
        "instructions": instructions,
        "cycles": cycles,
        "wall_s": wall_s,
        "ips": ips,
        "detail": {},
    }


def trajectory(*rig_ips, **kwargs):
    return build_trajectory(
        [payload(rig, ips) for rig, ips in rig_ips], **kwargs
    )


class TestTrajectoryFiles:
    def test_build_keys_rigs_by_name(self):
        doc = trajectory(("gate_stress", 100.0), ("fig5_riscv", 200.0),
                         fast_path=False)
        assert doc["format"] == FORMAT
        assert doc["fast_path"] is False and doc["block_cache"] is True
        assert set(doc["rigs"]) == {"gate_stress", "fig5_riscv"}
        assert "rig" not in doc["rigs"]["gate_stress"]
        assert doc["rigs"]["gate_stress"]["ips"] == 100.0

    def test_round_trip(self, tmp_path):
        doc = trajectory(("gate_stress", 123.0))
        path = str(tmp_path / "nested" / "BENCH_s.json")
        assert write_trajectory(doc, path) == path
        with open(path) as handle:
            assert json.load(handle) == doc
