import json
import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import amschan
from amschan.battery import ABC, rand_dense_channel, rand_dense_source
from amschan.channels import FsmChannel, channel_cyl_prob, hookup
from amschan.cli import main
from amschan.errors import ModelParseError
from amschan.gallery import bsc, copy_channel, lazy_two_state
from amschan.models import (
    channel_to_json,
    parse_channel,
    parse_model,
    parse_prob,
    parse_source,
    source_to_json,
    table_to_json,
)
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet
from amschan.sources import (
    FsmSource, Verdict, are_equivalent, as_float_source, cyl_prob, stationary_mean,
)

F = Fraction
AB = Alphabet(("a", "b"))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def test_parse_prob_forms():
    assert parse_prob("1/2") == F(1, 2)
    assert parse_prob("0.25") == F(1, 4)
    assert parse_prob({"num": 3, "den": 4}) == F(3, 4)
    assert parse_prob(1) == 1
    assert parse_prob(0.5) == F(1, 2)  # exact decimal reading
    assert parse_prob("1/2", float_mode=True) == 0.5
    with pytest.raises(ModelParseError):
        parse_prob("x/y")
    with pytest.raises(ModelParseError):
        parse_prob(None)


def test_source_round_trip(s1, s2, s3):
    for src in (s1, s2, s3):
        back = parse_source(json.loads(json.dumps(source_to_json(src))))
        assert are_equivalent(src, back)


def test_channel_round_trip(bsc25, ct):
    for ch in (bsc25, ct, copy_channel()):
        back = parse_channel(json.loads(json.dumps(channel_to_json(ch))))
        for w in AB.words_upto(2):
            for k in range(len(w) + 1):
                for v in AB.words(k):
                    assert channel_cyl_prob(back, w, v) == channel_cyl_prob(ch, w, v)


def test_joint_source_round_trip(s3, bsc25):
    joint = hookup(s3, bsc25).source
    back = parse_source(json.loads(json.dumps(source_to_json(joint))))
    assert are_equivalent(joint, back, max_len=3)
    assert back.labels[0] == ("a", "a")


def test_parse_model_dispatch(s3, bsc25):
    assert isinstance(parse_model(source_to_json(s3)), type(s3))
    assert isinstance(parse_model(channel_to_json(bsc25)), type(bsc25))
    with pytest.raises(ModelParseError):
        parse_model({"kind": "mystery"})
    with pytest.raises(ModelParseError):
        parse_model([1, 2, 3])


def test_float_mode_renormalizes_with_warning(s3):
    doc = source_to_json(s3)
    doc["init"] = [0.5, 0.5000000000001]
    with pytest.warns(UserWarning):
        src = parse_source(doc, float_mode=True)
    assert abs(sum(src.init) - 1.0) < 1e-15


def test_float_models_read_back_unchanged():
    # a float model the tool wrote sums to 1 only up to the rounding of its
    # own sum, so reading it back must neither warn nor rescale it
    for seed in range(4):
        rng = SplitMix64(seed)
        src = as_float_source(stationary_mean(rand_dense_source(rng, ABC, n_states=12)))
        ch = rand_dense_channel(rng, ABC, ABC, n_states=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ch = parse_channel(channel_to_json(ch), float_mode=True)
            back = parse_source(json.loads(json.dumps(source_to_json(src))), float_mode=True)
            ch_back = parse_channel(json.loads(json.dumps(channel_to_json(ch))), float_mode=True)
        assert (back.init, back.trans) == (src.init, src.trans)
        assert (ch_back.init, ch_back.kernel) == (ch.init, ch.kernel)


def test_table_serialization_sorted(s3, bsc25):
    from amschan.channels import quasi_stationary_mean

    doc = table_to_json(quasi_stationary_mean(s3, bsc25, 2))
    inputs = [tuple(e["input"]) for e in doc["entries"]]
    assert inputs == sorted(inputs, key=lambda w: (len(w), w))
    assert doc["entries"][0]["prob"] == "1"  # entry (a, empty-output)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def model_dir(tmp_path, s1, s2, s3, bsc25, ct):
    paths = {}
    for name, model, dump in [
        ("s1", s1, source_to_json),
        ("s2", s2, source_to_json),
        ("iid", s3, source_to_json),
        ("lazy", lazy_two_state(), source_to_json),
        ("bsc25", bsc25, channel_to_json),
        ("ct", ct, channel_to_json),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(dump(model)))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_cli_classify_channel(model_dir, capsys):
    code = main(["classify", "--channel", model_dir["bsc25"], "--source", model_dir["iid"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "channel stationary (depth 3): True" in out
    assert "quasi-stationary=True" in out


def test_cli_classify_ct_json(model_dir, capsys):
    code = main(
        ["classify", "--channel", model_dir["ct"], "--source", model_dir["iid"], "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["per_source"][0]
    assert row["ams"] is True
    assert row["quasi_stationary"] is False
    assert row["recurrent"] is False


def test_cli_classify_source_witness(model_dir, capsys):
    code = main(["classify", "--source", model_dir["s2"], "--depth", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    verdict = doc[model_dir["s2"]]
    assert verdict["recurrent"]["holds"] is False
    assert verdict["recurrent"]["witness"] == ["a"]


def run_cli(argv, model_dir, capsys):
    """(exit code, stdout, stderr) of `main`, with the model directory cut
    from the paths the output names."""
    code = main([a.format(**model_dir) for a in argv])
    out, err = capsys.readouterr()
    prefix = model_dir["dir"] + os.sep
    return code, out.replace(prefix, ""), err.replace(prefix, "")


CAVEAT = "'caveat': 'state-level test; negative verdicts are up to output-equivalence'"
S2_TEXT = (
    "s2.json:\n"
    "  stationary: False\n"
    "  recurrent: {'holds': False, 'depth': 3, 'witness': ['a']}\n"
    "  ams: {'holds': True, 'constant': 4.0, 'dev_small': 0.03125, 'dev_big': 0.015625}\n"
    f"  ergodic: {{'holds': True, {CAVEAT}, 'positive_classes': [['r']]}}\n"
    "  dominated_by_mean: {'holds': False, 'witness': ['a']}\n"
    "  asymptotically_dominated: {'holds': True}\n"
)


def lazy_text(constant, dev_small, dev_big):
    return (
        "lazy.json:\n"
        "  stationary: False\n"
        "  recurrent: {'holds': True, 'depth': 3, 'witness': None}\n"
        f"  ams: {{'holds': True, 'constant': {constant}, 'dev_small': {dev_small},"
        f" 'dev_big': {dev_big}}}\n"
        f"  ergodic: {{'holds': True, {CAVEAT}, 'positive_classes': [['s0', 's1']]}}\n"
        "  dominated_by_mean: {'holds': True, 'witness': None}\n"
        "  asymptotically_dominated: {'holds': True}\n"
    )


@pytest.mark.parametrize(
    "mode, lazy",
    [
        ("--exact", lazy_text(3.5555555555555216, 0.027777777777777513, 0.013888888888889644)),
        ("--float", lazy_text(3.5555555555555074, 0.0277777777777774, 0.013888888888889533)),
    ],
)
def test_cli_classify_source_text_is_pinned(mode, lazy, model_dir, capsys):
    argv = ["classify", "--source", "{s2}", "--source", "{lazy}", mode]
    assert run_cli(argv, model_dir, capsys) == (0, S2_TEXT + lazy, "")


def test_cli_classify_source_text_keeps_the_blocks_before_an_error(model_dir, capsys):
    argv = ["classify", "--source", "{s2}", "--source", "{bsc25}", "--source", "{iid}"]
    assert run_cli(argv, model_dir, capsys) == (
        2, S2_TEXT, "error: bsc25.json does not describe a source\n"
    )


@pytest.mark.parametrize("mode", ["--exact", "--float"])
def test_cli_classify_channel_text_is_pinned(mode, model_dir, capsys):
    argv = ["classify", "--channel", "{ct}", "--source", "{iid}", "--source", "{s1}",
            "--source", "{s2}", mode]
    assert run_cli(argv, model_dir, capsys) == (0, (
        "channel stationary (depth 3): False\n"
        "  witness: input=['a', 'b'] output=['a']\n"
        "iid.json: quasi-stationary=False recurrent=False ams=True r-ams=False ergodic=True\n"
        "s1.json: quasi-stationary=rejected recurrent=True ams=True r-ams=True ergodic=True\n"
        "  quasi_stationary rejected: source is not stationary\n"
        "s2.json: quasi-stationary=rejected recurrent=rejected ams=True r-ams=rejected"
        " ergodic=True\n"
        "  quasi_stationary rejected: source is not stationary\n"
        "  recurrent rejected: source is not recurrent at this depth\n"
    ), "")
    argv = ["classify", "--channel", "{bsc25}", "--source", "{iid}", "--source", "{lazy}", mode]
    assert run_cli(argv, model_dir, capsys) == (0, (
        "channel stationary (depth 3): True\n"
        "iid.json: quasi-stationary=True recurrent=True ams=True r-ams=True ergodic=True\n"
        "lazy.json: quasi-stationary=rejected recurrent=True ams=True r-ams=True ergodic=True\n"
        "  quasi_stationary rejected: source is not stationary\n"
    ), "")


def test_cli_model_parse_error_names_its_file(model_dir, tmp_path, capsys):
    """A model that parses as JSON but not as a model names its file, after
    the blocks of the models before it, as a file that is not JSON does."""
    (tmp_path / "nostates.json").write_text(json.dumps({"kind": "source", "alphabet": ["a"]}))
    argv = ["classify", "--source", "{s2}", "--source", "{dir}/nostates.json"]
    assert run_cli(argv, model_dir, capsys) == (
        2, S2_TEXT, "error: nostates.json: malformed source model: KeyError('states')\n"
    )


@pytest.mark.parametrize(
    "argv, name, kind",
    [
        (["classify", "--channel", "{iid}"], "iid", "channel"),
        (["classify", "--channel", "{ct}", "--source", "{bsc25}"], "bsc25", "source"),
        (["mean", "--source", "{ct}"], "ct", "source"),
        (["qsmean", "--channel", "{s1}", "--source", "{iid}"], "s1", "channel"),
        (["qsmean", "--channel", "{ct}", "--source", "{ct}"], "ct", "source"),
        (["hookup", "--source", "{iid}", "--channel", "{s2}"], "s2", "channel"),
        (["cascade", "--first", "{ct}", "--second", "{iid}"], "iid", "channel"),
        (["sample", "--source", "{bsc25}", "--horizon", "1", "--samples", "1", "--seed", "1"],
         "bsc25", "source"),
    ],
)
def test_cli_model_of_the_wrong_kind_is_a_parse_error(argv, name, kind, model_dir, capsys):
    assert run_cli(argv, model_dir, capsys) == (
        2, "", f"error: {name}.json does not describe a {kind}\n"
    )


def test_cli_exact_is_the_default_and_excludes_float(model_dir, capsys):
    outputs = []
    for mode in ([], ["--exact"], ["--float"]):
        code, out, _ = run_cli(["mean", "--source", "{lazy}"] + mode, model_dir, capsys)
        assert code == 0
        outputs.append(out)
    default, exact, floats = outputs
    assert default == exact != floats
    assert '"3/4"' in exact and '"0.75"' in floats
    for pair in (["--exact", "--float"], ["--float", "--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--source", model_dir["iid"]] + pair)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_cli_mean(model_dir, tmp_path, capsys):
    out = tmp_path / "mean.json"
    code = main(["mean", "--source", model_dir["s1"], "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["init"] == ["1/2", "1/2"]


def test_cli_qsmean_cascade_pipeline(model_dir, tmp_path, capsys):
    # compose two symmetric channels, then take the quasi-stationary mean
    # against the fair iid source: the table is the composed flip law
    b10 = tmp_path / "b10.json"
    b20 = tmp_path / "b20.json"
    b10.write_text(json.dumps(channel_to_json(bsc(F(1, 10)))))
    b20.write_text(json.dumps(channel_to_json(bsc(F(1, 5)))))
    casc = tmp_path / "cascade.json"
    assert main(["cascade", "--first", str(b10), "--second", str(b20), "--out", str(casc)]) == 0
    table = tmp_path / "table.json"
    assert main([
        "qsmean", "--channel", str(casc), "--source", model_dir["iid"],
        "--depth", "1", "--out", str(table),
    ]) == 0
    doc = json.loads(table.read_text())
    probs = {
        (tuple(e["input"]), tuple(e["output"])): e["prob"] for e in doc["entries"]
    }
    assert probs[(("a",), ("b",))] == "13/50"
    assert probs[(("a",), ("a",))] == "37/50"


def test_cli_qsmean_rejects_nonstationary(model_dir, capsys):
    code = main(["qsmean", "--channel", model_dir["bsc25"], "--source", model_dir["s1"]])
    assert code == 3
    assert "stationary" in capsys.readouterr().err


def test_cli_hookup_round_trip(model_dir, tmp_path):
    out = tmp_path / "joint.json"
    assert main([
        "hookup", "--source", model_dir["iid"], "--channel", model_dir["bsc25"],
        "--out", str(out),
    ]) == 0
    joint = parse_source(json.loads(out.read_text()))
    assert cyl_prob(joint, (("a", "a"),)) == F(3, 8)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    # a missing file, bad JSON, bytes that are not UTF-8, an integer past
    # Python's 4300-digit cap, arrays nested past the recursion limit and a
    # symbol nested 900 deep
    for name, content in [
        ("missing.json", None),
        ("bad.json", b"{not json"),
        ("latin1.json", b'{"kind": "source", "alphabet": ["\xe9"]}'),
        ("long_int.json", b'{"kind": "source", "init": [' + b"9" * 4301 + b"]}"),
        ("deep_arrays.json", b"[" * 100_000 + b"]" * 100_000),
        ("deep_symbol.json",
         b'{"kind": "source", "alphabet": [' + b"[" * 900 + b'"a"' + b"]" * 900 + b"]}"),
    ]:
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        for command in ("classify", "mean"):
            assert main([command, "--source", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)


def child_env() -> dict:
    """The environment of a CLI child process, which may run in another
    directory, so it gets the package root as an absolute path."""
    src_root = str(pathlib.Path(amschan.__file__).resolve().parent.parent)
    paths = [src_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def unrepresentable_model(prob: str) -> str:
    states = [{"name": "s", "label": "a"}]
    return json.dumps({"kind": "source", "alphabet": ["a"], "states": states,
                       "init": ["1"], "trans": [[prob]]})


@pytest.mark.parametrize(
    "prob, mode",
    [("1e-100000000", "--exact"), ("1e-100000000", "--float"), ("1e400", "--float")],
)
def test_cli_unrepresentable_probability_is_a_parse_error(prob, mode, tmp_path):
    # Fraction("1e-20000000") alone takes 24 s (2.6x the time of 1e-10000000;
    # Python 3.11.7, shared 2-core host), so 1e-100000000 would take minutes;
    # 1e400 overflows a float.  The child runs under a timeout so that a
    # regression fails here instead of hanging
    path = tmp_path / "model.json"
    path.write_text(unrepresentable_model(prob))
    for command in ("classify", "mean"):
        run = subprocess.run(
            [sys.executable, "-m", "amschan", command, "--source", str(path), mode],
            capture_output=True, env=child_env(), timeout=30,
        )
        assert (run.returncode, run.stdout) == (2, b"")
        err = run.stderr.decode()
        assert err.startswith(f"error: {path}: bad probability {prob!r}: ")
        assert err.count("\n") == 1


def test_cli_invariant_error_exit_code(tmp_path, capsys, s3):
    doc = source_to_json(s3)
    doc["init"] = ["1/2", "1/3"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert main(["classify", "--source", str(p)]) == 3


def test_cli_check_pass_and_determinism(tmp_path, capsys):
    argv = ["check", "--theorem", "prop8", "--trials", "3", "--seed", "7",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "result: PASS 3/3" in first


def test_cli_check_jobs_match_serial(tmp_path, capsys):
    base = ["check", "--theorem", "lemma8", "--trials", "4", "--seed", "3",
            "--out-dir", str(tmp_path)]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_cli_check_unknown_theorem(capsys):
    assert main(["check", "--theorem", "prop99", "--trials", "1", "--seed", "0"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--theorem", "prop1", "--trials", "2", "--seed", "1", "--depth", "-1"],
        ["check", "--theorem", "prop1", "--trials", "0", "--seed", "1"],
        ["check", "--theorem", "prop1", "--trials", "2", "--seed", "1", "--jobs", "0"],
        ["qsmean", "--channel", "{bsc25}", "--source", "{iid}", "--depth", "-1"],
        ["classify", "--source", "{iid}", "--depth", "0"],
        ["sample", "--source", "{iid}", "--horizon", "2", "--samples", "0", "--seed", "1"],
        ["sample", "--source", "{iid}", "--horizon", "0", "--samples", "5", "--seed", "1"],
    ],
)
def test_cli_counts_below_one_are_usage_errors(args, model_dir, capsys):
    # a negative depth would unbound the equality searches, and a zero count
    # would pass an empty check or fail deep in the sampler
    with pytest.raises(SystemExit) as exc:
        main([a.format(**model_dir) for a in args])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_cli_check_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    # force a failing claim to exercise the exit-1 + counterexample contract
    import amschan.classify as classify_mod

    def always_fails(rng, depth):
        return False, "forced failure", {"note": "synthetic counterexample"}

    monkeypatch.setitem(
        classify_mod.THEOREMS,
        "prop13",
        classify_mod._Claim("forced failing claim", always_fails),
    )
    code = main(["check", "--theorem", "prop13", "--trials", "2", "--seed", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "result: FAIL 0/2" in out
    files = sorted(p.name for p in tmp_path.glob("*counterexample.json"))
    assert files == [
        "prop13_trial000_counterexample.json",
        "prop13_trial001_counterexample.json",
    ]
    assert json.loads((tmp_path / files[0]).read_text()) == {
        "note": "synthetic counterexample"
    }


@pytest.mark.parametrize(
    "args",
    [
        ["mean", "--source", "{s1}"],
        ["qsmean", "--channel", "{bsc25}", "--source", "{iid}"],
        ["hookup", "--source", "{iid}", "--channel", "{bsc25}"],
        ["cascade", "--first", "{bsc25}", "--second", "{ct}"],
        ["check", "--theorem", "prop13", "--trials", "1", "--seed", "1"],
    ],
)
def test_cli_unwritable_output_is_a_usage_error(args, model_dir, tmp_path, capsys, monkeypatch):
    """An --out file, or a counterexample in --out-dir, whose directory does
    not exist is reported on one line with exit 2, not a traceback and the
    exit code of a failing check."""
    import amschan.classify as classify_mod

    monkeypatch.setitem(
        classify_mod.THEOREMS,
        "prop13",
        classify_mod._Claim("forced failing claim", lambda rng, depth: (False, "forced", {})),
    )
    missing = tmp_path / "missing"
    flag = ["--out-dir", str(missing)] if args[0] == "check" else ["--out", str(missing / "x.json")]
    assert main([a.format(**model_dir) for a in args] + flag) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing}") and err.count("\n") == 1


@pytest.mark.parametrize("theorem", ["prop8", "stationary_hookup"])
def test_cli_check_counterexample_models_round_trip(theorem, tmp_path, capsys, monkeypatch):
    # a real trial fails once its quasi-stationarity test is forced false, so
    # the counterexample holds the trial's own source and channel models
    import amschan.classify as classify_mod

    monkeypatch.setattr(
        classify_mod, "is_quasi_stationary_wrt", lambda ch, src, depth: Verdict(False, depth)
    )
    code = main(["check", "--theorem", theorem, "--trials", "2", "--seed", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "result: FAIL 0/2" in capsys.readouterr().out
    files = sorted(tmp_path.glob(f"{theorem}_trial*_counterexample.json"))
    assert len(files) == 2
    kinds = set()
    for path in files:
        for doc in json.loads(path.read_text()).values():
            model = parse_model(doc)
            kinds.add(type(model))
            dump = source_to_json if isinstance(model, FsmSource) else channel_to_json
            assert json.dumps(dump(model), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert kinds == ({FsmChannel} if theorem == "prop8" else {FsmSource, FsmChannel})


def test_cli_sample(model_dir, capsys):
    code = main([
        "sample", "--source", model_dir["iid"], "--horizon", "2",
        "--samples", "400", "--seed", "5", "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "empirical" and doc["samples"] == 400
    total = sum(F(e["freq"]) for e in doc["freq"])
    assert total == 1


def test_cli_json_schema_golden(model_dir, capsys):
    # the machine-readable verdict schema is frozen under version control
    import pathlib

    code = main(
        ["classify", "--channel", model_dir["ct"], "--source", model_dir["iid"], "--json"]
    )
    assert code == 0
    got = capsys.readouterr().out.replace(model_dir["iid"], "iid.json")
    golden = pathlib.Path(__file__).parent / "data" / "golden_classify_transient_copy.json"
    assert got == golden.read_text()


def test_cli_entry_point_subprocess(model_dir):
    # the module is runnable headless; byte-identical across runs
    cmd = [
        sys.executable, "-m", "amschan", "check", "--theorem", "stationary-hookup",
        "--trials", "2", "--seed", "11",
    ]
    r1 = subprocess.run(cmd, capture_output=True, cwd=model_dir["dir"], env=child_env())
    r2 = subprocess.run(cmd, capture_output=True, cwd=model_dir["dir"], env=child_env())
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_cli_check_caps_the_pool_at_the_trial_count(monkeypatch, capsys):
    # the fake pool runs the trials here; no process is started
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)
            self.map = map

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    argv = ["check", "--theorem", "stationary_hookup", "--trials", "2", "--seed", "11"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(amschan.cli.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(amschan.cli.os, "cpu_count", lambda: 8)
    assert main(argv + ["--jobs", "64"]) == 0
    assert started == [2]
    assert capsys.readouterr().out == serial


def test_cli_budget_exit_code(model_dir, capsys):
    code = main([
        "sample", "--source", model_dir["iid"], "--horizon", "1000000",
        "--samples", "1000000", "--seed", "1",
    ])
    assert code == 4
    assert "budget" in capsys.readouterr().err


def test_cli_float_mode(model_dir, capsys):
    code = main([
        "classify", "--channel", model_dir["bsc25"], "--source", model_dir["iid"],
        "--float",
    ])
    assert code == 0
    assert "quasi-stationary=True" in capsys.readouterr().out


def test_cli_float_classify_matches_exact_on_tiny_transient_mass(
    tiny_mass_chain, tmp_path, capsys
):
    # the float stationarity test passes within EPS, but "a a" is refuted on
    # the chain graph, which proves the source non-stationary; both
    # domination checks read the supports, so they agree too
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(source_to_json(tiny_mass_chain(F(1, 10**5), F(1)))))
    verdicts = []
    for mode in ("--exact", "--float"):
        assert main(["classify", "--source", str(path), "--depth", "3", "--json", mode]) == 0
        verdicts.append(json.loads(capsys.readouterr().out)[str(path)])
    for v in verdicts:
        assert v["stationary"] is False
        assert v["recurrent"] == {"holds": False, "depth": 3, "witness": ["a", "a"]}
        assert v["dominated_by_mean"] == {"holds": False, "witness": ["a", "a", "b"]}
        assert v["asymptotically_dominated"] == {"holds": True}
    exact, floats = verdicts
    for field in ("dominated_by_mean", "asymptotically_dominated"):
        assert floats[field] == exact[field]


@pytest.mark.parametrize(
    "args, expected",
    [
        (["mean", "--source", "reducible_source.json"], "reducible_mean_float.json"),
        (
            ["hookup", "--source", "reducible_source.json",
             "--channel", "two_state_channel.json"],
            "reducible_hookup_float.json",
        ),
    ],
)
def test_cli_float_output_keeps_zero_types(args, expected, capsys):
    # float zeros stay "0.0" where the dense product gave 0.0 (the transient
    # states of the mean) and int zeros stay "0"; the expected bytes come from
    # the dense forward product
    data = pathlib.Path(__file__).parent / "data"
    argv = [str(data / a) if a.endswith(".json") else a for a in args]
    assert main(argv + ["--float"]) == 0
    assert capsys.readouterr().out == (data / expected).read_text()


def test_cli_exact_hookup_matches_the_dense_product(capsys):
    # the channel has a "0" kernel entry, whose joint column no positive
    # term reaches, so it keeps no integer forms and its hookup takes the
    # dense path; it also has entries 1 as a JSON int and a string, and two
    # entries into one joint state; the expected bytes come from the dense
    # Fraction product of the rows
    data = pathlib.Path(__file__).parent / "data"
    argv = ["hookup", "--source", str(data / "reducible_source.json"),
            "--channel", str(data / "zero_entry_channel.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == (data / "reducible_hookup_exact.json").read_text()
