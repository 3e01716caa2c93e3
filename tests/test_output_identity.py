"""Output identity across versions: every file the CLI writes for a few
fixed runs must keep its SHA-256 digest.

The digests in ``tests/data/output_digests.json`` come from a reference
version of the code, together with the numpy and scipy versions and the
BLAS it ran on.  The message-passing bits depend only on this code and
numpy; the exact layer's bits also pass through SuperLU and BLAS, which
may differ by CPU, so a failure also says whether that fingerprint differs.

A change that moves output bits on purpose regenerates the fixture:

    PYTHONPATH=src python tests/test_output_identity.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from harmonic_influence import cli

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "output_digests.json"
RUNS = {
    "generate_n50_seed3": ["generate", "--n", "50", "--seed", "3"],
    "experiment_n50_seed3": ["experiment", "--n", "50", "--seed", "3"],
    "experiment_n50_seed7": ["experiment", "--n", "50", "--seed", "7"],
    "experiment_n300_seed5": ["experiment", "--n", "300", "--p", "0.03", "--extra-edges", "30", "--seed", "5"],
    # conductances and field lines read from a file whose edges are out of sorted order
    "exact_two_cycles": ["exact", str(DATA / "two_cycles.edges")],
    "mpa_two_cycles": ["mpa", str(DATA / "two_cycles.edges")],
}


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def output_digests(root):
    """Run every command into its own directory under root; the digest of each file written, by run/file."""
    digests = {}
    for name, argv in RUNS.items():
        out = Path(root) / name
        out.mkdir(parents=True)
        # exact writes one CSV file; the other commands write into a directory
        target = out / "influence.csv" if argv[0] == "exact" else out
        assert cli.main([*argv, "--out", str(target)]) == cli.EXIT_OK, name
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_the_recorded_digests(tmp_path, capsys):
    fixture = json.loads(FIXTURE.read_text())
    digests = output_digests(tmp_path)
    capsys.readouterr()
    expected = fixture["digests"]
    differ = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    if differ:
        same_host = fixture["fingerprint"] == fingerprint()
        note = (
            "the numpy, scipy and BLAS fingerprint is the recorded one, so the code moved these bits"
            if same_host
            else f"the fingerprint differs too: recorded {fixture['fingerprint']}, here {fingerprint()}"
        )
        raise AssertionError(f"{len(differ)} output files differ from the recorded digests: {', '.join(differ)}; {note}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"fingerprint": fingerprint(), "digests": output_digests(tmp)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {FIXTURE}", file=sys.stderr)
