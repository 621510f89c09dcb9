import dataclasses
import itertools
import json
import subprocess
import sys

import pytest

from shotfuse.sync import OffsetEstimate
from shotfuse.training import TrainConfig

CLI = [sys.executable, "-m", "shotfuse"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthesize a corpus and train both models once, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "duration_s": 50.0,
        "shot_count": 30,
        "injected_offset_ms": -270.0,
        "distractor_rate_per_min": 2.0,
        "seed": 41,
    }
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = root / "data"
    run_cli("synth", "--config", cfg_path, "--out-dir", data_dir)

    filter_path = root / "filter.json"
    run_cli("train-filter", "--data", data_dir, "--out", filter_path,
            "--epochs", 80, "--seed", 3)
    forest_path = root / "forest.json"
    run_cli("train-forest", "--data", data_dir, "--filter", filter_path,
            "--out", forest_path, "--seed", 3)
    return {"root": root, "data": data_dir, "filter": filter_path, "forest": forest_path}


def test_synth_writes_expected_files(workspace):
    data = workspace["data"]
    assert (data / "audio.wav").exists()
    assert (data / "imu.csv").read_text().splitlines()[0] == "t_ms,ax,ay,az,gx,gy,gz"
    assert (data / "labels.csv").read_text().splitlines()[0] == "t_ms"


def test_trained_model_files(workspace):
    filter_payload = json.loads(workspace["filter"].read_text())
    assert sorted(filter_payload) == ["bias", "microframe_ms", "sample_rate", "weights"]
    forest_payload = json.loads(workspace["forest"].read_text())
    assert sorted(forest_payload) == ["feature", "leaf_class", "left", "right", "seed", "sizes", "threshold"]
    assert len(forest_payload["sizes"]) == 50
    for name in ("feature", "threshold", "left", "right", "leaf_class"):
        assert len(forest_payload[name]) == sum(forest_payload["sizes"])


def test_sync_outputs_json(workspace):
    data = workspace["data"]
    proc = run_cli("sync", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                   "--filter", workspace["filter"])
    payload = json.loads(proc.stdout)
    assert set(payload) == {"offset_ms", "peak_correlation", "validated", "window_seconds"}
    assert abs(payload["offset_ms"] - (-270.0)) <= 40.0


def test_sync_json_sync_and_train_forest_print_the_offset_estimate_fields(workspace, tmp_path):
    # All three are asdict of one sync.OffsetEstimate, so a new field reaches each of them.
    names = sorted(f.name for f in dataclasses.fields(OffsetEstimate))
    data = workspace["data"]
    printed = json.loads(run_cli("sync", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                                 "--filter", workspace["filter"]).stdout)
    run_cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv", "--filter", workspace["filter"],
            "--forest", workspace["forest"], "--out-dir", tmp_path / "out")
    written = json.loads((tmp_path / "out" / "sync.json").read_text())
    trained = json.loads(run_cli("train-forest", "--data", data, "--filter", workspace["filter"],
                                 "--out", tmp_path / "forest.json", "--seed", 3).stdout)
    sync_fields = {key: trained[key] for key in trained.keys() - {"candidates", "validation_accuracy", "model_path"}}
    assert sorted(printed) == sorted(written) == sorted(sync_fields) == names
    assert printed == written == sync_fields


def test_detect_end_to_end_with_labels(workspace, tmp_path):
    data = workspace["data"]
    out_dir = tmp_path / "out"
    proc = run_cli(
        "detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
        "--filter", workspace["filter"], "--forest", workspace["forest"],
        "--labels", data / "labels.csv", "--out-dir", out_dir, "--emit-series",
    )
    payload = json.loads(proc.stdout)
    assert payload["report"]["f_score"] >= 0.9
    assert (out_dir / "detections.csv").exists()
    assert (out_dir / "sync.json").exists()
    assert (out_dir / "apf.csv").read_text().splitlines()[0] == "time_ms,value"
    assert (out_dir / "ipf.csv").exists()


def test_detect_then_eval_round_trip(workspace, tmp_path):
    data = workspace["data"]
    out_dir = tmp_path / "out"
    run_cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
            "--filter", workspace["filter"], "--forest", workspace["forest"],
            "--out-dir", out_dir)
    proc = run_cli("eval", "--events", out_dir / "detections.csv",
                   "--labels", data / "labels.csv", "--tolerance-ms", 100)
    payload = json.loads(proc.stdout)
    assert payload["true_positives"] + payload["false_negatives"] == 30
    assert payload["f_score"] >= 0.9


def test_detect_audio_only_mode(workspace, tmp_path):
    data = workspace["data"]
    out_dir = tmp_path / "ao"
    proc = run_cli("detect", "--audio", data / "audio.wav", "--filter", workspace["filter"],
                   "--audio-only", "--labels", data / "labels.csv", "--out-dir", out_dir)
    payload = json.loads(proc.stdout)
    assert (out_dir / "detections.csv").exists()
    assert not (out_dir / "sync.json").exists()
    assert payload["event_count"] > 0


def test_detect_missing_model_fails(workspace, tmp_path):
    data = workspace["data"]
    proc = run_cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                   "--filter", tmp_path / "nope.json", "--forest", workspace["forest"],
                   check=False)
    assert proc.returncode != 0
    assert "model not found" in proc.stderr


def test_training_on_a_truncated_wav_fails_naming_the_frames(workspace, tmp_path):
    # 50 s is 400,000 frames; keep 399,800 and half of the next. No training
    # window reaches the last 400 samples, so every one ends before the cut.
    data = tmp_path / "data"
    data.mkdir()
    for name in ("imu.csv", "labels.csv"):
        (data / name).write_bytes((workspace["data"] / name).read_bytes())
    (data / "audio.wav").write_bytes((workspace["data"] / "audio.wav").read_bytes()[: 44 + 2 * 399_800 + 1])
    expected = "error: truncated WAV: the header declares 400000 frames, the file holds 399800\n"
    for command, out, *rest in (("train-filter", "filter.json", "--epochs", 1),
                                ("train-forest", "forest.json", "--filter", workspace["filter"])):
        proc = run_cli(command, "--data", data, "--out", tmp_path / out, *rest, check=False)
        assert proc.returncode == 1 and proc.stderr == expected, (command, proc.stderr)
        assert not (tmp_path / out).exists()


def test_detect_needs_imu_and_forest_unless_audio_only(workspace, tmp_path):
    data = workspace["data"]
    out_dir = tmp_path / "out"
    proc = run_cli("detect", "--audio", data / "audio.wav", "--filter", workspace["filter"],
                   "--forest", workspace["forest"], "--out-dir", out_dir, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: detect needs --imu and --forest unless --audio-only is given\n"
    assert not out_dir.exists()


def test_sync_missing_model_fails(workspace, tmp_path):
    data = workspace["data"]
    missing = tmp_path / "nope.json"
    proc = run_cli("sync", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                   "--filter", missing, check=False)
    assert proc.returncode == 1
    assert proc.stderr == f"error: model not found: {missing}\n"


def test_sync_on_an_imu_clock_that_misses_the_audio_names_the_overlap(workspace, tmp_path):
    # t_ms on another clock, such as device uptime: the IMU samples start
    # 1,000 s after the audio ends, so the two series do not overlap.
    lines = (workspace["data"] / "imu.csv").read_text().splitlines()
    rows = [line.split(",", 1) for line in lines[1:]]
    shifted = tmp_path / "imu.csv"
    shifted.write_text("\n".join([lines[0]] + [f"{float(t) + 1_000_000.0:.3f},{rest}" for t, rest in rows]) + "\n")
    proc = run_cli("sync", "--audio", workspace["data"] / "audio.wav", "--imu", shifted,
                   "--filter", workspace["filter"], check=False)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: snippet too short: the audio and IMU series overlap for 0 s, the offset estimate needs 5 s\n"


def test_detect_determinism_byte_identical(workspace, tmp_path):
    data = workspace["data"]
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        run_cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                "--filter", workspace["filter"], "--forest", workspace["forest"],
                "--out-dir", out_dir)
        outputs.append(
            ((out_dir / "detections.csv").read_bytes(), (out_dir / "sync.json").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_train_forest_determinism_byte_identical(workspace, tmp_path):
    data = workspace["data"]
    blobs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        run_cli("train-forest", "--data", data, "--filter", workspace["filter"],
                "--out", out, "--seed", 3)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_training_takes_only_epochs_and_seed(workspace, tmp_path):
    # The Adam step, batch size, negative ratio, split and forest size are fixed.
    out = tmp_path / "model.json"
    cases = [
        ("train-filter", ["--learning-rate", "0.01"]),
        ("train-filter", ["--batch-size", "8"]),
        ("train-filter", ["--neg-pos-ratio", "5"]),
        ("train-forest", ["--filter", workspace["filter"], "--trees", "10"]),
    ]
    for command, extra in cases:
        proc = run_cli(command, "--data", workspace["data"], "--out", out, *extra, check=False)
        assert proc.returncode == 2
        assert f"unrecognized arguments: {' '.join(map(str, extra[-2:]))}" in proc.stderr
    assert not out.exists()
    usage = run_cli("train-filter", "--help").stdout + run_cli("train-forest", "--help").stdout
    for flag in ("--learning-rate", "--batch-size", "--neg-pos-ratio", "--trees"):
        assert flag not in usage
    with pytest.raises(TypeError):
        TrainConfig(learning_rate=0.01)


def json_error(text: str) -> str:
    """What json.loads says of malformed text; its wording varies between Python releases."""
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "top level must be a JSON object, got array"),
        ('{"duration_s": 5.0, "shots": 3}', "unknown field 'shots'"),
        ('{"duration_s": 5.0,}', json_error('{"duration_s": 5.0,}')),
    ],
    ids=["array", "unknown-field", "malformed"],
)
def test_synth_names_the_config_it_rejects(tmp_path, text, message):
    # Each used to print a bare Python or json message, naming neither the config nor what it must hold.
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(text)
    proc = run_cli("synth", "--config", cfg_path, "--out-dir", tmp_path / "data", check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: synth config: {message}\n"
    assert not (tmp_path / "data").exists()


def test_synth_names_a_missing_config(tmp_path):
    # It used to print the bare "[Errno 2] No such file or directory".
    missing = tmp_path / "nope.json"
    proc = run_cli("synth", "--config", missing, "--out-dir", tmp_path / "data", check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: synth config not found: {missing}\n"
    assert not (tmp_path / "data").exists()


def test_synth_rejects_non_finite_config(tmp_path):
    # json reads NaN and Infinity; they used to reach synthesize and crash there.
    for field, text in (("duration_s", "NaN"), ("distractor_rate_per_min", "Infinity")):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(f'{{"{field}": {text}}}')
        proc = run_cli("synth", "--config", cfg_path, "--out-dir", tmp_path / "data", check=False)
        assert proc.returncode == 1
        value = float(text)
        assert proc.stderr == f"error: {field} must be finite, got {value}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["synth", "train-filter", "train-forest"])
def test_commands_reject_a_negative_seed_by_name(workspace, tmp_path, command):
    # Each used to die in numpy's generator as "error: expected non-negative integer".
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text('{"duration_s": 5.0, "shot_count": 1, "seed": -1}')
    args = {
        "synth": ("--config", cfg_path, "--out-dir", tmp_path / "data"),
        "train-filter": ("--data", workspace["data"], "--out", tmp_path / "model.json", "--seed", -1),
        "train-forest": ("--data", workspace["data"], "--filter", workspace["filter"],
                         "--out", tmp_path / "model.json", "--seed", -1),
    }[command]
    proc = run_cli(command, *args, check=False)
    assert (proc.returncode, proc.stderr) == (1, "error: seed must be non-negative, got -1\n")
    assert not (tmp_path / "data").exists() and not (tmp_path / "model.json").exists()


def test_eval_rejects_a_bad_tolerance(workspace, tmp_path):
    data = workspace["data"]
    events = tmp_path / "events.csv"
    events.write_text("time_ms,score\n1000.0,1.0\n")
    for value in ("nan", "-5"):
        proc = run_cli("eval", "--events", events, "--labels", data / "labels.csv",
                       "--tolerance-ms", value, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: tolerance_ms must be finite and non-negative, got {float(value)}\n"


def test_eval_rejects_non_finite_labels(tmp_path):
    # A NaN label used to be scored as a missed shot.
    events = tmp_path / "events.csv"
    events.write_text("time_ms,score\n1000.0,1.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("t_ms\n1000.0\nnan\n")
    proc = run_cli("eval", "--events", events, "--labels", labels, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: shot timestamps must be finite\n"


def test_detect_rejects_a_bad_tolerance_before_it_runs(workspace, tmp_path):
    # With --labels it used to write detections.csv and only then fail; without, NaN passed.
    data = workspace["data"]
    for i, (value, labels) in enumerate((("nan", ["--labels", data / "labels.csv"]), ("nan", []), ("-5", []))):
        out_dir = tmp_path / f"out{i}"
        proc = run_cli("detect", "--audio", data / "audio.wav", "--filter", workspace["filter"],
                       "--audio-only", *labels, "--tolerance-ms", value, "--out-dir", out_dir, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: tolerance_ms must be finite and non-negative, got {float(value)}\n"
        assert not (out_dir / "detections.csv").exists()


def test_detect_rejects_emit_series_in_audio_only_mode(workspace, tmp_path):
    # It used to exit 0 having written neither apf.csv nor ipf.csv.
    data = workspace["data"]
    out_dir = tmp_path / "out"
    proc = run_cli("detect", "--audio", data / "audio.wav", "--filter", workspace["filter"],
                   "--audio-only", "--emit-series", "--out-dir", out_dir, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: --audio-only and --emit-series cannot be combined: audio-only detection writes no series\n"
    assert not (out_dir / "detections.csv").exists()


def test_sync_and_detect_take_no_sync_settings(workspace, tmp_path):
    # The lag range, validation tail and estimation window are fixed by the sync module.
    data = workspace["data"]
    inputs = ["--audio", data / "audio.wav", "--imu", data / "imu.csv", "--filter", workspace["filter"]]
    for command, extra in (("sync", []), ("detect", ["--forest", workspace["forest"], "--out-dir", tmp_path])):
        proc = run_cli(command, *inputs, *extra, "--max-lag-ms", 500, check=False)
        assert proc.returncode == 2
        assert "unrecognized arguments: --max-lag-ms 500" in proc.stderr
        usage = run_cli(command, "--help").stdout
        for flag in ("--window-seconds", "--validation-seconds", "--max-lag-ms"):
            assert flag not in usage
    assert not (tmp_path / "detections.csv").exists()


def per_tree_forest(payload):
    """The forest of a forest.json payload as the per-tree layout wrote it: {"tree_count", "seed", "trees"}."""
    ends = list(itertools.accumulate(payload["sizes"]))
    trees = [{name: payload[name][end - size : end] for name in ("feature", "threshold", "left", "right", "leaf_class")}
             for size, end in zip(payload["sizes"], ends)]
    return {"tree_count": len(trees), "seed": payload["seed"], "trees": trees}


def test_detect_rejects_broken_model_files(workspace, tmp_path):
    data = workspace["data"]
    filter_payload = json.loads(workspace["filter"].read_text())
    forest_payload = json.loads(workspace["forest"].read_text())
    cases = [
        ("filter", {k: v for k, v in filter_payload.items() if k != "bias"},
         "filter model: missing field 'bias'"),
        ("filter", {**filter_payload, "microframe_ms": 7},
         "filter model: microframe_ms must be 10, got 7"),
        ("filter", {**filter_payload, "sample_rate": 16000},
         "filter model: sample_rate must be 8000, got 16000"),
        ("forest", {k: v for k, v in forest_payload.items() if k != "sizes"},
         "forest model: missing field 'sizes'"),
        # The layout before forest.json was the node table: one object per tree and a tree_count.
        ("forest", per_tree_forest(forest_payload), "forest model: missing field 'feature'"),
    ]
    for i, (kind, payload, message) in enumerate(cases):
        models = {"filter": workspace["filter"], "forest": workspace["forest"]}
        models[kind] = tmp_path / f"{kind}{i}.json"
        models[kind].write_text(json.dumps(payload))
        proc = run_cli("detect", "--audio", data / "audio.wav", "--imu", data / "imu.csv",
                       "--filter", models["filter"], "--forest", models["forest"],
                       "--out-dir", tmp_path / "out", check=False)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
