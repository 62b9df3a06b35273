"""Committed old-state fixtures, end to end.

The fixtures under ``fixtures/`` are fig2/fig7 machines paused mid-run.
``fig{2,7}-v1.snap`` hold them in the retired format v1 envelope;
``fig{2,7}-v2.snap`` are the same payloads re-wrapped byte for byte in
the v2 envelope.  The v2 copies must resume to outputs bit-identical
to an uninterrupted run of the same workload; the v1 files must be
refused with a typed error before any of their bytes are unpickled.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import (
    EXIT_SNAPSHOT_UNLOADABLE,
    FORMAT_VERSION,
    load_machine,
    read_metadata,
    read_snapshot,
    snapshot_cycle,
)
from repro.checkpoint import snapshot as snapshot_mod
from repro.checkpoint.snapshot import _HEADER
from repro.errors import SnapshotError
from repro.machine import Machine
from repro.workloads.figures import figure_workload

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
#: generation parameters, keyed by the v1 file name
SPECS = json.loads((FIXTURE_DIR / "fixtures.json").read_text())
#: the v1 envelope: magic(8s) + version(I) + payload length(Q) +
#: payload sha256(32s), then the pickled payload
_V1_HEADER = struct.Struct(">8sIQ32s")


def _v2(name):
    return name.replace("-v1.snap", "-v2.snap")


def _clean_outputs(spec):
    workload = figure_workload(spec["workload"])
    program = workload.compile(m=spec["m"])
    inputs = workload.make_inputs(program, seed=spec["input_seed"])
    machine = Machine(program.graph, inputs=inputs)
    machine.run()
    return machine.outputs()


def _cli(*argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, env=env,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
class TestFixtures:
    def test_fixture_is_genuinely_v1(self, name):
        raw = (FIXTURE_DIR / name).read_bytes()
        magic, version, length, digest = _V1_HEADER.unpack_from(raw)
        assert (magic, version) == (b"RPROSNAP", 1)
        payload = raw[_V1_HEADER.size:]
        assert len(payload) == length
        assert hashlib.sha256(payload).digest() == digest

    def test_migrate_then_resume_bit_identical(self, name):
        # the committed v2 copy is the v1 payload, re-wrapped verbatim
        spec = SPECS[name]
        v1_payload = (FIXTURE_DIR / name).read_bytes()[_V1_HEADER.size:]
        raw = (FIXTURE_DIR / _v2(name)).read_bytes()
        meta_len = _HEADER.unpack_from(raw)[2]
        assert raw[_HEADER.size + meta_len:] == v1_payload
        meta = read_metadata(FIXTURE_DIR / _v2(name))
        assert meta["format"] == FORMAT_VERSION
        assert meta["workload"] == f"{spec['workload']}[m={spec['m']}]"
        machine = load_machine(FIXTURE_DIR / _v2(name), expected_cls=Machine)
        assert machine.now == spec["stop_at"] - 1
        machine.run()
        assert machine.outputs() == _clean_outputs(spec)

    def test_v1_refused_before_unpickling(self, name, monkeypatch):
        def never(*_args):
            raise AssertionError("a v1 payload reached the unpickler")

        monkeypatch.setattr(snapshot_mod, "_restricted_loads", never)
        path = FIXTURE_DIR / name
        for read in (read_metadata, read_snapshot, snapshot_cycle,
                     load_machine):
            with pytest.raises(SnapshotError, match="format version 1"):
                read(path)


class TestFixtureCli:
    def test_resume_refuses_v1_then_migrates_then_resumes(self):
        name = "fig2-v1.snap"
        refused = _cli("resume", str(FIXTURE_DIR / name))
        # an unloadable snapshot exits with the dedicated code the
        # supervisor keys its quarantine decision on, not a generic 1
        assert refused.returncode == EXIT_SNAPSHOT_UNLOADABLE
        assert b"format version 1" in refused.stderr
        assert b"Traceback" not in refused.stderr
        # the migrated (committed v2) copy resumes to clean outputs
        resumed = _cli("resume", str(FIXTURE_DIR / _v2(name)))
        assert resumed.returncode == 0, resumed.stderr
        outputs = json.loads(resumed.stdout)
        clean = _clean_outputs(SPECS[name])
        assert outputs == {k: list(v) for k, v in clean.items()}
