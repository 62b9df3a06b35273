"""Tests for the unified backend facade (:mod:`repro.api`).

`repro.run()` must accept Val source, a CompiledProgram or a raw
graph, dispatch to any registered backend, agree across backends on
outputs, and reject options a backend cannot honor (instead of
silently dropping them).  The ``--json`` CLI envelope rides on the
same RunResult shape.
"""

import json

import pytest

import repro
from repro import api
from repro.checkpoint import CheckpointConfig
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.machine import MachineConfig
from repro.workloads import FIG2_SOURCE, figure_workload


def _fig2(m=8):
    wl = figure_workload("fig2")
    cp = wl.compile(m=m)
    return cp, wl.make_inputs(cp)


class TestRunFacade:
    def test_backends_agree_on_outputs(self):
        cp, inputs = _fig2()
        extra = {
            "sync": {},
            "event": {"config": MachineConfig.unit_time()},
            "sharded": {"config": MachineConfig.unit_time(),
                        "shard_config": {"shards": 2,
                                         "processes": False}},
            "compiled": {"config": MachineConfig.unit_time()},
        }
        results = {
            name: repro.run(cp, inputs, backend=name, **kwargs)
            for name, kwargs in extra.items()
        }
        outs = {n: r.outputs for n, r in results.items()}
        assert (outs["sync"] == outs["event"] == outs["sharded"]
                == outs["compiled"])
        for name, r in results.items():
            assert r.backend == name
            assert r.cycles > 0
        # event, sharded and compiled share the machine clock exactly
        assert (results["event"].sink_times
                == results["sharded"].sink_times
                == results["compiled"].sink_times)

    @pytest.mark.parametrize(
        "figure", ["fig2", "fig4", "fig5", "fig6", "fig7"]
    )
    def test_compiled_matches_event_on_every_figure(self, figure):
        wl = figure_workload(figure)
        cp = wl.compile(m=24)
        inputs = wl.make_inputs(cp)
        event = repro.run(cp, inputs, backend="event")
        compiled = repro.run(cp, inputs, backend="compiled")
        assert compiled.outputs == event.outputs
        assert compiled.sink_times == event.sink_times
        assert compiled.cycles == event.cycles

    def test_val_source_path(self):
        cp = repro.compile_program(FIG2_SOURCE, params={"m": 4})
        inputs = {
            name: [1.0] * (spec.hi - spec.lo + 1)
            for name, spec in cp.input_specs.items()
        }
        result = repro.run(
            FIG2_SOURCE, inputs, params={"m": 4}, backend="sync"
        )
        assert len(result.outputs) == 1
        stream = next(iter(result.outputs))
        assert result.initiation_interval(stream) > 0
        assert result.latency(stream) >= 0
        assert result.throughput(stream) > 0

    def test_raw_graph_path(self):
        cp, inputs = _fig2()
        streams = cp.prepare_inputs(inputs)
        result = repro.run(cp.graph, streams, backend="event")
        assert result.outputs == repro.run(cp, inputs).outputs

    def test_raw_graph_rejects_params(self):
        cp, _ = _fig2()
        with pytest.raises(ReproError, match="params"):
            repro.run(cp.graph, {}, params={"m": 4})

    def test_unknown_backend(self):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="unknown backend"):
            repro.run(cp, inputs, backend="quantum")

    def test_unrunnable_program_type(self):
        with pytest.raises(ReproError, match="cannot run"):
            repro.run(12345)

    def test_shards_need_sharded_backend(self):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="sharded"):
            repro.run(cp, inputs, backend="event", shards=4)
        with pytest.raises(ReproError, match=">= 1"):
            repro.run(cp, inputs, backend="sharded", shards=0)

    def test_sync_rejects_machine_options(self):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="faults"):
            repro.run(cp, inputs, backend="sync",
                      faults=FaultPlan(seed=1, drop_result=0.1))
        with pytest.raises(ReproError, match="checkpoint"):
            repro.run(cp, inputs, backend="sync",
                      checkpoint=CheckpointConfig("/tmp/nope"))

    def test_event_rejects_sharding_options(self):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="processes"):
            repro.run(cp, inputs, backend="event", processes=False)
        with pytest.raises(ReproError, match="partition"):
            repro.run(cp, inputs, backend="event",
                      partition="round_robin")

    def test_reject_compares_against_real_defaults(self):
        """Regression: ``reject`` used a shared sentinel, so any field
        whose *actual* default was falsy (``recovery=False`` after an
        explicit pass) was either spuriously rejected or silently
        accepted."""
        cp, inputs = _fig2()
        # recovery is a sync-irrelevant machine knob with default True;
        # passing the non-default False must NOT trip the validator
        result = repro.run(cp, inputs, backend="sync", recovery=False)
        assert result.backend == "sync"
        # processes is no option of any backend, whatever its value
        for value in (True, False, None):
            with pytest.raises(ReproError, match="processes"):
                repro.run(cp, inputs, backend="event", processes=value)
        # the default shards=None still passes untouched
        repro.run(cp, inputs, backend="event", shards=None)

    @pytest.mark.parametrize(
        "backend", ["sync", "event", "sharded", "compiled"]
    )
    @pytest.mark.parametrize(
        "option", ["processes", "heal", "partition", "procesess"]
    )
    def test_every_backend_rejects_unknown_options(self, backend, option):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match=f"'{option}'"):
            repro.run(cp, inputs, backend=backend, **{option: True})

    def test_explicit_one_shard_means_one_shard(self):
        cp, inputs = _fig2()
        event = repro.run(cp, inputs, backend="event")
        sharded = repro.run(cp, inputs, backend="sharded", shards=1)
        assert sharded.shards == 1
        assert len(sharded.engine.machines) == 1
        assert sharded.outputs == event.outputs

    def test_sharded_default_is_the_config_default(self):
        from repro.machine import ShardConfig

        cp, inputs = _fig2()
        result = repro.run(cp, inputs, backend="sharded",
                           config=MachineConfig.unit_time())
        assert result.shards == ShardConfig().shards == 2

    def test_shards_with_shard_config_is_an_error(self):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="not both"):
            repro.run(cp, inputs, backend="sharded", shards=2,
                      shard_config={"processes": False})

    def test_register_backend(self):
        calls = []

        class EchoBackend:
            name = "echo"

            def execute(self, request):
                calls.append(request)
                return api.RunResult(
                    backend=self.name, outputs={}, sink_times={},
                    cycles=0, stats=None,
                )

        api.register_backend(EchoBackend())
        try:
            cp, inputs = _fig2()
            result = repro.run(cp, inputs, backend="echo",
                               custom_knob=7)
            assert result.backend == "echo"
            assert calls[0].options == {"custom_knob": 7}
        finally:
            del api.BACKENDS["echo"]

    def test_register_backend_replace_and_restore(self):
        """Re-registering an existing name swaps the implementation in
        place; restoring the saved object brings the original behavior
        back exactly."""
        original = api.BACKENDS["sync"]

        class StubSync:
            name = "sync"

            def execute(self, request):
                return api.RunResult(
                    backend="sync", outputs={"stub": [42.0]},
                    sink_times={"stub": [0]}, cycles=0, stats=None,
                )

        api.register_backend(StubSync())
        try:
            cp, inputs = _fig2()
            assert repro.run(cp, inputs, backend="sync").outputs == {
                "stub": [42.0]
            }
        finally:
            api.register_backend(original)
        assert api.BACKENDS["sync"] is original
        restored = repro.run(*_fig2(), backend="sync")
        assert "stub" not in restored.outputs

    def test_resume_facade_event_backend(self, tmp_path):
        cp, inputs = _fig2()
        full = repro.run(cp, inputs, workload_id="fig2")
        ck = CheckpointConfig(tmp_path / "snaps", interval=10)
        repro.run(cp, inputs, checkpoint=ck, workload_id="fig2")
        resumed = repro.resume(tmp_path / "snaps")
        assert resumed.backend == "event"
        assert resumed.outputs == full.outputs


class TestRunResultJson:
    def test_stable_shape(self):
        cp, inputs = _fig2()
        payload = repro.run(cp, inputs).to_json_dict()
        assert payload["schema"] == api.RESULT_SCHEMA == 1
        assert set(payload) == {
            "schema", "backend", "shards", "cycles", "streams", "stats",
        }
        for record in payload["streams"].values():
            assert set(record) == {
                "values", "times", "initiation_interval",
            }
            assert len(record["values"]) == len(record["times"])
        assert payload["stats"]["total_firings"] > 0
        # the whole payload must survive json round-tripping
        assert json.loads(json.dumps(payload)) == payload

    def test_interval_null_when_undefined(self):
        result = api.RunResult(
            backend="sync", outputs={"X": [1.0]},
            sink_times={"X": [3]}, cycles=3, stats=None,
        )
        payload = result.to_json_dict()
        assert payload["streams"]["X"]["initiation_interval"] is None

    def test_stream_selection_errors(self):
        result = api.RunResult(
            backend="sync", outputs={"X": [], "Y": []},
            sink_times={"X": [], "Y": []}, cycles=0, stats=None,
        )
        with pytest.raises(ValueError, match="must be named"):
            result.initiation_interval()
        with pytest.raises(ValueError, match="no output stream"):
            result.latency("Z")

    def test_throughput_degenerate_intervals(self):
        """Regression: II == 0 (simultaneous arrivals) used to raise
        ZeroDivisionError and an unmeasurable NaN interval leaked NaN
        throughput to callers."""
        simultaneous = api.RunResult(
            backend="sync", outputs={"X": [1.0, 2.0, 3.0, 4.0]},
            sink_times={"X": [5, 5, 5, 5]}, cycles=5, stats=None,
        )
        assert simultaneous.initiation_interval("X") == 0
        assert simultaneous.throughput("X") == float("inf")
        short = api.RunResult(
            backend="sync", outputs={"X": [1.0, 2.0]},
            sink_times={"X": [3, 5]}, cycles=5, stats=None,
        )
        assert short.initiation_interval("X") != short.initiation_interval("X")
        assert short.throughput("X") == 0.0

    def test_latency_raises_on_empty_stream(self):
        """Regression: latency() used to IndexError on a stream that
        produced nothing; it now names the problem."""
        result = api.RunResult(
            backend="sync", outputs={"X": []},
            sink_times={"X": []}, cycles=0, stats=None,
        )
        with pytest.raises(ValueError, match="produced no outputs"):
            result.latency("X")


class TestCliJson:
    def _write_program(self, tmp_path):
        cp, inputs = _fig2(m=4)
        src = tmp_path / "fig2.val"
        src.write_text(FIG2_SOURCE, encoding="utf-8")
        ins = tmp_path / "inputs.json"
        ins.write_text(json.dumps(inputs), encoding="utf-8")
        return src, ins

    @pytest.mark.parametrize(
        "backend", ["sync", "event", "sharded", "compiled"]
    )
    def test_run_envelope(self, tmp_path, capsys, backend):
        src, ins = self._write_program(tmp_path)
        argv = ["run", str(src), "--inputs", str(ins), "--param",
                "m=4", "--json", "--backend", backend]
        if backend == "sharded":
            argv += ["--shards", "2"]
        assert cli_main(argv) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "run"
        assert envelope["ok"] is True
        result = envelope["result"]
        assert result["backend"] == backend
        assert result["shards"] == (2 if backend == "sharded" else 1)
        assert result["streams"]

    def test_run_envelope_values_agree_across_backends(
        self, tmp_path, capsys
    ):
        src, ins = self._write_program(tmp_path)
        values = {}
        for backend in ("sync", "event", "compiled"):
            assert cli_main(
                ["run", str(src), "--inputs", str(ins), "--param",
                 "m=4", "--json", "--backend", backend]
            ) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            values[backend] = {
                s: rec["values"] for s, rec in result["streams"].items()
            }
        assert values["sync"] == values["event"] == values["compiled"]

    def test_replay_envelope(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert cli_main(
            ["checkpoint", "fig2", "--size", "8", "--dir", str(snaps),
             "--interval", "10", "--record"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["replay", str(snaps), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "replay"
        assert envelope["ok"] is True
        assert envelope["result"]["mismatches"] == []

    def test_bisect_envelope(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert cli_main(
            ["checkpoint", "fig2", "--size", "8", "--dir", str(snaps),
             "--interval", "10", "--record"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["bisect", str(snaps), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "bisect"
        assert envelope["result"]["diverged"] is False
