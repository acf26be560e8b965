"""The benchmark workloads' artifacts, held to recorded sha256 digests.

Every command of perfbench/workloads.py at its full sizes, seeds 0 and 1,
runs in one fresh interpreter, so that randbc pins one BLAS thread before
numpy loads; the digests come from each manifest's outputs.  The manifests
themselves are left out, since their workers field follows the CPU count.
The two constraint-experiment commands run again at --threads 1 and must
give the same bytes (no bits move with the thread count).

numpy's exp and OpenBLAS's GEMM kernels are chosen by CPU features, so the
digests hold only on the environment recorded with them; elsewhere the test
skips.  A change that moves emitted floats on purpose re-records the file:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import _fresh_python

GOLDEN = Path(__file__).with_name("golden_digests.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (0, 1)

CHILD = """
import json
import os
import sys
sys.path.insert(0, {perfbench!r})
import randbc.cli
import workloads


def digests(argv, out):
    assert randbc.cli.run(argv + ["--out", out]) == 0, argv
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)["outputs"]


found, serial = {{}}, {{}}
for seed in {seeds!r}:
    for name in workloads.NAMES:
        for j, argv in enumerate(workloads.commands(name, seed, "full")):
            key = f"{{seed}}/{{name}}/{{j}}.{{argv[0]}}"
            out = os.path.join({tmp!r}, key.replace("/", "-"))
            for file, digest in digests(argv, out).items():
                found[f"{{key}}/{{file}}"] = digest
            if argv[0] == "constraint-experiment":
                argv[argv.index("--threads") + 1] = "1"
                for file, digest in digests(argv, out + "-serial").items():
                    serial[f"{{key}}/{{file}}"] = digest
print(json.dumps([found, serial]))
"""


def environment() -> dict:
    """What the digests' bits depend on besides the sources."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "simd": sorted(config["SIMD Extensions"]["found"]),
            "python": f"{sys.version_info.major}.{sys.version_info.minor}"}


def workload_digests(tmp) -> tuple[dict, dict]:
    """(every artifact's digest, the constraint-experiment ones at --threads 1)."""
    proc = _fresh_python(CHILD.format(perfbench=str(PERFBENCH), seeds=SEEDS, tmp=str(tmp)),
                         600.0)
    assert proc.returncode == 0, proc.stderr
    found, serial = json.loads(proc.stdout.strip().splitlines()[-1])
    return found, serial


def test_workload_artifacts_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["environment"]["numpy"] != np.__version__:     # before show_config(mode=)
        pytest.skip(f"digests recorded on numpy {golden['environment']['numpy']}, "
                    f"running {np.__version__}")
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"digests recorded on {golden['environment']}, running on {here}")
    found, serial = workload_digests(tmp_path)
    assert found == golden["digests"]
    assert serial == {key: golden["digests"][key] for key in serial}
    assert len(serial) == 12      # 2 commands x 3 CSVs x 2 seeds


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found, serial = workload_digests(tmp)
    assert serial == {key: found[key] for key in serial}, "--threads 1 moved bits"
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": found},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(found)} digests to {os.path.relpath(GOLDEN)}")
