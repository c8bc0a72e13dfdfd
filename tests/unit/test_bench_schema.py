"""Schema round-trip and validation for the evaluation harness."""

import json

import pytest

from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRecord,
    EnvFingerprint,
    SchemaError,
    SuiteResult,
    records_from_metrics,
)


def make_record(**overrides):
    fields = dict(
        suite="host",
        workload="lock_storm",
        metric="steps_per_sec",
        value=726000.0,
        unit="steps/s",
        direction="higher",
        params={},
    )
    fields.update(overrides)
    return BenchRecord(**fields)


def make_result(records=None):
    return SuiteResult(
        suite="host",
        env=EnvFingerprint(commit="abc1234", python="3.11.7", cores=4,
                           platform="linux", scale=64),
        config={"scale": 64, "repeat": 10, "model": "sparc-ipx"},
        records=records if records is not None else [make_record()],
    )


def test_record_round_trip():
    record = make_record(params={"clients": 1000}, tolerance=0.5)
    clone = BenchRecord.from_dict(record.to_dict())
    assert clone == record
    assert clone.key() == record.key()


def test_suite_result_round_trip(tmp_path):
    result = make_result(
        [
            make_record(),
            make_record(metric="simulated_us", value=94621.05, unit="us",
                        direction="exact"),
            make_record(workload="pipeline", params={"stage": 4}),
        ]
    )
    path = tmp_path / "host.json"
    result.save(path)
    clone = SuiteResult.load(path)
    assert clone == result
    # On-disk form is plain JSON with the version stamped in.
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["env"]["commit"] == "abc1234"


def test_add_builds_records_of_the_suite():
    result = SuiteResult(suite="net")
    result.add("pool", "elapsed_us", 12.5, "us", "exact",
               clients=50, sweep="cold")
    result.add("pool", "identical", True, "bool", "exact")
    result.add("pool", "speedup", 2.0, "ratio", "higher", 0.5)
    assert result.validate().records == [
        BenchRecord(suite="net", workload="pool", metric="elapsed_us",
                    value=12.5, unit="us", direction="exact",
                    params={"clients": 50, "sweep": "cold"}),
        BenchRecord(suite="net", workload="pool", metric="identical",
                    value=1, unit="bool", direction="exact"),
        BenchRecord(suite="net", workload="pool", metric="speedup",
                    value=2.0, unit="ratio", direction="higher",
                    tolerance=0.5),
    ]


def test_value_looks_up_exact_params():
    result = SuiteResult(suite="net")
    result.add("pool", "elapsed_us", 1.0, "us", "exact", clients=50)
    result.add("pool", "elapsed_us", 2.0, "us", "exact", clients=200)
    assert result.value("pool", "elapsed_us", clients=200) == 2.0
    with pytest.raises(KeyError):
        result.value("pool", "elapsed_us")  # params must match exactly
    with pytest.raises(KeyError):
        result.value("select", "elapsed_us", clients=50)


def test_records_from_metrics_harvests_info_counters():
    records = records_from_metrics(
        {"b.count": 3, "a.flag": True, "name": "inproc",
         "lat": {"count": 2, "mean": 1.5, "max": 2.0, "buckets": [1]}},
        "fleet", "dfs", params={"phase": "jobs4"},
    )
    assert [(r.metric, r.value) for r in records] == [
        ("a.flag", 1), ("b.count", 3),
        ("lat.count", 2), ("lat.mean", 1.5), ("lat.max", 2.0),
    ]
    assert all(r.direction == "info" and r.params == {"phase": "jobs4"}
               for r in records)


def test_key_distinguishes_params():
    a = make_record(params={"clients": 50})
    b = make_record(params={"clients": 200})
    assert a.key() != b.key()
    assert a.key() == make_record(params={"clients": 50}).key()


@pytest.mark.parametrize(
    "overrides",
    [
        {"direction": "sideways"},
        {"value": "fast"},
        {"value": True},
        {"metric": ""},
        {"unit": ""},
        {"tolerance": 1.5},
        {"tolerance": 0.0},
        {"tolerance": 0.2, "direction": "exact"},
        {"params": {"nested": {"too": "deep"}}},
        {"params": {1: "non-string-key"}},
    ],
)
def test_invalid_records_are_rejected(overrides):
    with pytest.raises(SchemaError):
        make_record(**overrides).validate()


def test_duplicate_record_keys_are_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        make_result([make_record(), make_record()]).validate()


def test_record_from_wrong_suite_is_rejected():
    record = make_record(suite="net")
    with pytest.raises(SchemaError, match="belongs to suite"):
        make_result([record]).validate()


def test_unsupported_schema_version_is_rejected(tmp_path):
    result = make_result()
    path = tmp_path / "host.json"
    result.save(path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="unsupported schema version"):
        SuiteResult.load(path)


def test_unknown_record_fields_are_rejected():
    payload = make_record().to_dict()
    payload["steps"] = 5
    with pytest.raises(SchemaError, match="unknown fields"):
        BenchRecord.from_dict(payload)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(SchemaError, match="not JSON"):
        SuiteResult.load(path)


def test_env_fingerprint_round_trip():
    env = EnvFingerprint(commit="abc", python="3.12.1", cores=8,
                         platform="linux", scale=16)
    assert EnvFingerprint.from_dict(env.to_dict()) == env
    # scale is optional and omitted from the payload when unset
    bare = EnvFingerprint(commit="abc")
    assert "scale" not in bare.to_dict()
