"""Config parsing: defaults, normalization, and loud rejection of typos."""

import json

import pytest

from shardemu.config import (
    BadValue,
    ConfigError,
    MissingKey,
    UnknownKey,
    load_config,
    parse_config,
)


def base(**over):
    cfg = {"n_shards": 2}
    cfg.update(over)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = parse_config({"n_shards": 2})
    assert cfg.n_shards == 2
    assert cfg.nodes_per_shard == 4
    assert cfg.block_size == 200
    assert cfg.block_interval_ms == 1000
    assert cfg.epoch_ms == 5000
    assert cfg.mechanism == "relay" and cfg.partition == "static"
    assert cfg.brokers == [] and cfg.brokers_top_k is None
    assert cfg.injection.prefill is True
    assert (cfg.clpa.beta, cfg.clpa.rho) == (0.5, 100)
    assert cfg.sim is not None and cfg.tcp is None
    assert cfg.sim.latency_ms == 5 and cfg.sim.seed == 0
    assert cfg.stop.drain is True and cfg.stop.wall_ms is None
    assert cfg.faults == []


def test_view_change_timeout_defaults_to_ten_intervals():
    assert parse_config(base(block_interval_ms=800)).vc_timeout_ms == 8000
    assert parse_config(base(pbft_view_change_timeout_ms=777)).vc_timeout_ms == 777


def test_echo_is_idempotent_under_reparse():
    cfg = parse_config(base(
        block_size=50,
        brokers=["0x" + "ab" * 20],
        mechanism="broker",
        transport={"sim": {"latency_ms": [2, 9], "seed": 4}},
        stop={"drain": True, "wall_ms": 9000},
        injection={"base_rate": 100.0, "ramp": 1.5},
        faults=[{"kind": "crash", "node": "0.1", "at_ms": 250}],
    ))
    echoed = cfg.echo()
    assert parse_config(echoed).echo() == echoed


def test_echo_normalizes_brokers_and_faults():
    listed = parse_config(base(mechanism="broker", brokers=["0x" + "cd" * 20]))
    assert listed.echo()["brokers"] == ["cd" * 20]
    ranked = parse_config(base(mechanism="broker", brokers="top:12"))
    assert ranked.echo()["brokers"] == "top:12"
    assert ranked.brokers_top_k == 12

    faulty = parse_config(base(
        nodes_per_shard=4,
        faults=[
            {"kind": "crash", "node": "1.3", "at_ms": 10},
            {"kind": "invalid_block", "node": "0.0", "height": 2},
        ],
    ))
    assert faulty.echo()["faults"] == [
        {"kind": "crash", "node": "1.3", "at_ms": 10},
        {"kind": "invalid_block", "node": "0.0", "height": 2},
    ]


def test_echo_shapes():
    cfg = parse_config(base(
        transport={"sim": {"latency_ms": [3, 7]}},
        injection={"base_rate": 20},
        stop={"wall_ms": 5000},
    ))
    echoed = cfg.echo()
    assert echoed["transport"] == {"sim": {"latency_ms": [3, 7], "seed": 0}}
    assert cfg.sim.latency_ms == (3, 7)
    assert echoed["injection"] == {"base_rate": 20.0, "ramp": 0.0, "batch_interval_ms": 250}
    assert echoed["stop"] == {"drain": False, "wall_ms": 5000}
    assert echoed["pbft_view_change_timeout_ms"] == 10000

    over_tcp = parse_config(base(transport={"tcp": {"ip_table": "peers.json"}}))
    assert over_tcp.echo()["transport"] == {"tcp": {"ip_table": "peers.json"}}


def test_wall_only_stop_disables_drain_by_default():
    cfg = parse_config(base(stop={"wall_ms": 3000}))
    assert cfg.stop.drain is False and cfg.stop.wall_ms == 3000
    both = parse_config(base(stop={"drain": True, "wall_ms": 3000}))
    assert both.stop.drain is True and both.stop.wall_ms == 3000


@pytest.mark.parametrize("missing, key", [
    ({}, "n_shards"),
    (base(injection={"ramp": 1.0}), "injection.base_rate"),
    (base(faults=[{"kind": "crash", "node": "0.0"}]), "faults[0].at_ms"),
    (base(faults=[{"kind": "invalid_block", "node": "0.0"}]), "faults[0].height"),
])
def test_missing_keys(missing, key):
    with pytest.raises(MissingKey) as err:
        parse_config(missing)
    assert err.value.key == key


@pytest.mark.parametrize("cfg, key", [
    (base(tpo=1), "tpo"),
    (base(injection={"prefill": True, "oops": 1}), "injection.oops"),
    (base(clpa={"gamma": 0.1}), "clpa.gamma"),
    (base(transport={"udp": {}}), "transport.udp"),
    (base(transport={"sim": {"jitter": 1}}), "transport.sim.jitter"),
    (base(stop={"after": 1}), "stop.after"),
    (base(pool_policy="fifo"), "pool_policy"),
    (base(faults=[{"kind": "crash", "node": "0.0", "at_ms": 1, "height": 2}]),
     "faults[0].height"),
])
def test_unknown_keys(cfg, key):
    with pytest.raises(UnknownKey) as err:
        parse_config(cfg)
    assert err.value.key == key


@pytest.mark.parametrize("cfg", [
    [],  # not an object
    base(n_shards=0),
    base(n_shards=True),  # booleans are not integers here
    base(block_size="big"),
    base(block_interval_ms=0),
    base(mechanism="hub"),
    base(partition="dynamic"),
    base(mechanism="broker"),  # no broker accounts
    base(brokers="top:0"),
    base(brokers="topten"),
    base(brokers=7),
    base(brokers=["xyz"]),
    base(brokers=["0x" + "ab" * 20, "AB" * 20]),  # duplicate modulo prefix
    base(injection={"prefill": True, "base_rate": 5.0}),
    base(injection={"prefill": 1}),
    base(injection={"base_rate": -1}),
    base(injection={"base_rate": 5, "batch_interval_ms": 0}),
    base(clpa={"beta": 1.0}),
    base(clpa={"beta": -0.1}),
    base(clpa={"rho": 0}),
    base(transport={"sim": {}, "tcp": {}}),
    base(transport={"sim": {"latency_ms": [5, 2]}}),
    base(transport={"sim": {"latency_ms": [1, 2, 3]}}),
    base(transport={"sim": {"latency_ms": -1}}),
    base(transport={"sim": {"latency_ms": [True, 2]}}),
    base(transport={"sim": {"seed": "x"}}),
    base(transport={"tcp": {"ip_table": 7}}),
    base(transport={"tcp": []}),
    base(stop={"drain": False}),
    base(stop={"drain": 1}),
    base(stop={"wall_ms": 0}),
    base(faults=[{"kind": "pause", "node": "0.0"}]),
    base(faults=[{"kind": "crash", "node": "9.0", "at_ms": 1}]),
    base(faults=[{"kind": "crash", "node": "0.9", "at_ms": 1}]),
    base(faults=[{"kind": "crash", "node": "zero", "at_ms": 1}]),
    base(faults=[{"kind": "crash", "node": "0.0", "at_ms": -1}]),
    base(faults=[{"kind": "invalid_block", "node": "0.0", "height": 0}]),
    base(nodes_per_shard=3, faults=[{"kind": "crash", "node": "0.0", "at_ms": 1}]),
    base(transport={"tcp": {}}, faults=[{"kind": "crash", "node": "0.0", "at_ms": 1}]),
    base(dataset_limit=0),
    base(dataset_path=7),
    base(output_dir=7),
])
def test_bad_values(cfg):
    with pytest.raises(BadValue):
        parse_config(cfg)


def test_fault_specs_survive_parsing():
    cfg = parse_config(base(faults=[
        {"kind": "crash", "node": "0.0", "at_ms": 5000},
        {"kind": "invalid_block", "node": "1.2", "height": 3},
    ]))
    crash, invalid = cfg.faults
    assert (crash.kind, crash.node, crash.at_ms, crash.height) == ("crash", "0.0", 5000, None)
    assert (invalid.kind, invalid.node, invalid.at_ms, invalid.height) == (
        "invalid_block", "1.2", None, 3)


def test_load_config(tmp_path):
    good = tmp_path / "run.json"
    good.write_text(json.dumps(base(block_size=17)))
    assert load_config(str(good)).block_size == 17

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(broken))
