"""The CLI's output bytes on a fixed corpus of runs, against committed digests.

The corpus is `amschan classify --json` on each source alone and with each
channel, `amschan hookup` of each source and channel, and `amschan mean` of
each source, each exact and with `--float`.  The models are the committed
model files of `tests/data` and a few gallery models written beside them:
the copy channel over {a, b} and over {a, b, c}, the transient-copy and
coin-flip-once channels, two two-state channels with no zero kernel entry,
one whose init charges both states and one whose init is written as the
JSON integers 1 and 0, an int-row lasso source and the cycle a b b b b
(whose `classify` exits 3).  Each run is made in process, from the models'
directory, so that the file names printed in the output do not depend on
where it is.  `tests/data/cli_digests.json` maps each run's arguments to the
sha256 of its stdout and its exit code.

After an intended change of output, regenerate the digests with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/data/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile
from fractions import Fraction

from amschan.channels import FsmChannel
from amschan.cli import main
from amschan.gallery import (
    coin_flip_once_channel, copy_channel, cycle_source, transient_copy_channel,
)
from amschan.models import channel_to_json, source_to_json
from amschan.seqcore import Alphabet
from amschan.sources import FsmSource

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "cli_digests.json"
AB, ABC = Alphabet(("a", "b")), Alphabet(("a", "b", "c"))

#: committed files of `DATA` read as models
DATA_SOURCES = ("reducible_source.json", "transient_pair_chain.json", "reducible_mean_float.json")
DATA_CHANNELS = ("two_state_channel.json", "zero_entry_channel.json")


def _gallery() -> dict[str, dict]:
    """File name -> model JSON of the gallery models of the corpus."""
    F = Fraction
    lasso = FsmSource(
        AB, ("t0", "t1", "t2", "t3"), (1, 0, 0, 0),
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)), ("a", "b", "b", "a"),
    )
    two_init = FsmChannel(AB, AB, ("q0", "q1"), (F(1, 3), F(2, 3)), {
        (0, "a"): (("a", 0, F(1, 2)), ("b", 1, F(1, 2))),
        (0, "b"): (("b", 0, 1),),
        (1, "a"): (("a", 1, F(3, 4)), ("b", 0, F(1, 4))),
        (1, "b"): (("b", 1, 1),),
    })
    int_init = FsmChannel(AB, AB, ("q0", "q1"), (1, 0), {
        (0, "a"): (("a", 1, 1),),
        (0, "b"): (("b", 0, F(2, 3)), ("a", 1, F(1, 3))),
        (1, "a"): (("b", 0, 1),),
        (1, "b"): (("b", 1, F(1, 2)), ("a", 0, F(1, 2))),
    })
    return {
        "lasso_source.json": source_to_json(lasso),
        "cycle_abbbb_source.json": source_to_json(cycle_source(("a", "b", "b", "b", "b"))),
        "copy_channel.json": channel_to_json(copy_channel()),
        "copy_abc_channel.json": channel_to_json(copy_channel(ABC)),
        "transient_copy_channel.json": channel_to_json(transient_copy_channel()),
        "coin_flip_once_channel.json": channel_to_json(coin_flip_once_channel()),
        "two_init_channel.json": channel_to_json(two_init),
        "int_init_channel.json": {**channel_to_json(int_init), "init": [1, 0]},
    }


def corpus() -> list[list[str]]:
    """The argument lists of every run, on model files named as in `write_models`."""
    names = list(_gallery())
    sources = [*DATA_SOURCES, *(n for n in names if n.endswith("_source.json"))]
    channels = [*DATA_CHANNELS, *(n for n in names if n.endswith("_channel.json"))]
    runs = []
    for mode in ([], ["--float"]):
        for src in sources:
            runs.append(["classify", "--json", *mode, "--source", src])
            runs.append(["mean", *mode, "--source", src])
            for ch in channels:
                runs.append(["classify", "--json", *mode, "--channel", ch, "--source", src])
                runs.append(["hookup", *mode, "--source", src, "--channel", ch])
    return runs


def write_models(folder: pathlib.Path) -> None:
    for name in DATA_SOURCES + DATA_CHANNELS:
        shutil.copyfile(DATA / name, folder / name)
    for name, obj in _gallery().items():
        (folder / name).write_text(json.dumps(obj))


def digests() -> dict[str, dict]:
    """' '.join(args) -> the sha256 of stdout and the exit code of each run,
    made in the current directory, which holds the models."""
    out = {}
    for args in corpus():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        out[" ".join(args)] = {"stdout_sha256": digest, "exit": code}
    return out


def test_cli_runs_match_their_committed_digests(tmp_path, monkeypatch):
    write_models(tmp_path)
    monkeypatch.chdir(tmp_path)
    got, want = digests(), json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(want)
    assert [args for args in want if got[args] != want[args]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        write_models(pathlib.Path(folder))
        os.chdir(folder)
        json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
