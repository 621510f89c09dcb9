"""Golden bytes: the synthesized corpora that CI's byte-determinism steps run on, pinned by sha256.

tests/golden.json records, for each corpus, its synth config and the sha256
of the three files `shotfuse synth` writes, and the numpy version they were
made with: the pink noise goes through np.fft and every draw through numpy's
Generator, so a numpy release may move bytes. A change that moves them on
purpose updates golden.json in the same commit.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from shotfuse.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@pytest.mark.parametrize("corpus", sorted(GOLDEN["corpora"]))
def test_synth_files_are_the_recorded_bytes(tmp_path, capsys, corpus):
    recorded = GOLDEN["corpora"][corpus]
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(recorded["config"]))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    changed = [name for name, digest in sorted(recorded["sha256"].items())
               if hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() != digest]
    assert not changed, (
        f"{corpus} corpus: {', '.join(changed)} changed; recorded with numpy {GOLDEN['numpy']}, "
        f"running numpy {np.__version__} on {platform.machine()}"
    )
