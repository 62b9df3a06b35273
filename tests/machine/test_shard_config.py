"""Tests for the redesigned sharded-backend configuration API.

One validated :class:`ShardConfig` (with nested
:class:`RecoveryPolicy` and :class:`TransportConfig`) is the only way
to configure sharding on ``repro.run`` / ``repro.resume`` / the CLI,
with ``shards=`` as its one shorthand; backends that cannot honor
``shard_config`` must reject it loudly.
"""

import pytest

import repro
from repro.errors import ReproError, SimulationError
from repro.machine import (
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
    TransportConfig,
)
from repro.machine.shard_config import _coerce_recovery
from repro.workloads import figure_workload


def _fig2(m=8):
    wl = figure_workload("fig2")
    cp = wl.compile(m=m)
    return cp, wl.make_inputs(cp)


class TestValidation:
    def test_defaults_validate(self):
        sc = ShardConfig().validate()
        assert sc.shards == 2
        assert sc.window == "adaptive"
        assert sc.transport.kind == "auto"
        assert sc.recovery is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"partition": "bogus"},
            {"window": "sometimes"},
            {"max_window": 0},
            {"pool_idle_timeout": 0.0},
            {"crash_shard": 5},
            {"transport": TransportConfig(kind="carrier-pigeon")},
            {"transport": TransportConfig(ring_slots=0)},
            {"recovery": RecoveryPolicy(deadline=0.0)},
            {"recovery": RecoveryPolicy(heartbeat=-1.0)},
            {"recovery": RecoveryPolicy(max_restarts=-1)},
            {"recovery": RecoveryPolicy(strikes=0)},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(SimulationError):
            ShardConfig(**kwargs).validate()


class TestJson:
    def test_round_trip(self):
        sc = ShardConfig(
            shards=4,
            window="fixed",
            max_window=128,
            pool=False,
            transport=TransportConfig(kind="pipe", ring_slots=64),
            recovery=RecoveryPolicy(enabled=True, max_restarts=1),
        )
        again = ShardConfig.from_json(sc.to_dict())
        assert again == sc

    def test_json_string(self):
        sc = ShardConfig.from_json(
            '{"shards": 4, "transport": {"kind": "pipe"}}'
        )
        assert sc.shards == 4
        assert sc.transport.kind == "pipe"
        assert sc.transport.ring_slots == 512   # default survives

    def test_unknown_key_is_an_error(self):
        with pytest.raises(SimulationError, match="unknown shard config"):
            ShardConfig.from_json({"shards": 2, "shardz": 3})

    def test_unknown_nested_keys_are_errors(self):
        with pytest.raises(SimulationError, match="unknown transport"):
            ShardConfig.from_json({"transport": {"king": "shm"}})
        with pytest.raises(SimulationError, match="unknown recovery"):
            ShardConfig.from_json({"recovery": {"deadlines": 1.0}})

    def test_malformed_json(self):
        with pytest.raises(SimulationError, match="invalid"):
            ShardConfig.from_json("{not json")
        with pytest.raises(SimulationError, match="JSON object"):
            ShardConfig.from_json("[1, 2]")

    def test_coerce(self):
        assert ShardConfig.coerce(None) is None
        sc = ShardConfig(shards=4)
        assert ShardConfig.coerce(sc) is sc
        assert ShardConfig.coerce({"shards": 4}).shards == 4
        assert ShardConfig.coerce('{"shards": 4}').shards == 4
        with pytest.raises(SimulationError):
            ShardConfig.coerce(42)


class TestRecoveryMapping:
    def test_coerce_recovery_forms(self):
        assert _coerce_recovery(None) is None
        assert _coerce_recovery(False).enabled is False
        assert _coerce_recovery(True).enabled is True
        tuned = RecoveryPolicy(enabled=True, max_restarts=7)
        assert _coerce_recovery(tuned) is tuned
        assert _coerce_recovery({"strikes": 3}).strikes == 3
        with pytest.raises(SimulationError):
            _coerce_recovery("yes please")

    @pytest.mark.parametrize(
        "enabled, checkpointed, healing",
        [(None, False, False), (None, True, True), (True, False, True),
         (False, True, False)],
    )
    def test_runner_reads_the_recovery_tri_state(
            self, tmp_path, enabled, checkpointed, healing):
        # auto (None) heals iff worker processes *and* checkpoints;
        # True/False force it.  Nothing spawns before run().
        from repro.checkpoint import CheckpointConfig

        cp, inputs = _fig2()
        policy = RecoveryPolicy(enabled=enabled, max_restarts=1)
        runner = ShardedRunner(
            cp.graph, cp.prepare_inputs(inputs),
            checkpoint=(CheckpointConfig(tmp_path / "snaps", interval=10)
                        if checkpointed else None),
            shard_config=ShardConfig(shards=2, processes=True,
                                     recovery=policy),
        )
        assert (runner._heal is policy) is healing
        assert (runner._heal is None) is not healing


class TestFacade:
    def test_shard_config_drives_the_sharded_backend(self):
        cp, inputs = _fig2()
        ref = repro.run(cp, inputs, backend="event",
                        config=MachineConfig.unit_time())
        res = repro.run(
            cp, inputs, backend="sharded",
            config=MachineConfig.unit_time(),
            shard_config={"shards": 4, "processes": False,
                          "window": "adaptive"},
        )
        assert res.shards == 4
        assert res.outputs == ref.outputs
        assert res.sink_times == ref.sink_times

    def test_shards_kwarg_stays_first_class(self):
        cp, inputs = _fig2()
        res = repro.run(
            cp, inputs, backend="sharded", shards=2,
            config=MachineConfig.unit_time(),
        )
        assert res.shards == 2
        ref = repro.run(cp, inputs, backend="event",
                        config=MachineConfig.unit_time())
        assert res.outputs == ref.outputs

    @pytest.mark.parametrize("backend", ["sync", "event", "compiled"])
    def test_other_backends_reject_shard_config(self, backend):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="shard_config"):
            repro.run(cp, inputs, backend=backend,
                      shard_config={"shards": 2})

    def test_resume_rejects_shard_config_on_single_machine(self, tmp_path):
        from repro.checkpoint import CheckpointConfig

        cp, inputs = _fig2()
        repro.run(
            cp, inputs, backend="event",
            checkpoint=CheckpointConfig(tmp_path / "snaps", interval=5),
        )
        with pytest.raises(ReproError, match="sharded"):
            repro.resume(tmp_path / "snaps",
                         shard_config={"shards": 2})


class TestCli:
    def _program(self, tmp_path):
        import json

        src = (
            "Y : array[real] :=\n"
            "  forall i in [0, m - 1]\n"
            "  construct\n"
            "    a[i] + b[i]\n"
            "  endall\n"
        )
        path = tmp_path / "add.val"
        path.write_text(src, encoding="utf-8")
        inputs = tmp_path / "inputs.json"
        inputs.write_text(
            json.dumps({"a": [1.0] * 6, "b": [2.0] * 6}),
            encoding="utf-8",
        )
        return str(path), str(inputs)

    def test_run_with_shard_config_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--backend", "sharded",
            "--shard-config",
            '{"shards": 2, "processes": false, "window": "fixed"}',
        ])
        assert rc == 0
        assert "Y" in capsys.readouterr().out

    def test_run_flags_overlay_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--backend", "sharded",
            "--shard-config", '{"shards": 2, "processes": false}',
            "--window", "fixed", "--max-window", "64",
            "--no-warm-pool", "--transport", "pipe",
        ])
        assert rc == 0

    def test_bad_shard_config_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--backend", "sharded",
            "--shard-config", '{"shardz": 2}',
        ])
        assert rc == 1
        assert "unknown shard config" in capsys.readouterr().err

    def test_shard_config_on_other_backend_is_an_error(
        self, tmp_path, capsys
    ):
        # never a silent no-op: the default backend is sync, and a
        # --shard-config there used to be dropped on the floor
        from repro.cli import main as cli_main

        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--shard-config", '{"shards": 2}',
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--shard-config requires --backend sharded" in err

