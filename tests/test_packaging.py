"""The source distribution carries the kernels and the bundled witness
graphs that `ramseylb blowup <key>` reads at run time."""

import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WITNESS_FILES = ("k3/6.g6", "k3/7.g6", "k4me/4.g6", "k4me/5.g6")


def test_sdist_contents(tmp_path):
    build = "import sys, setuptools.build_meta as b; b.build_sdist(sys.argv[1])"
    subprocess.run(
        [sys.executable, "-c", build, str(tmp_path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    (archive,) = tmp_path.glob("*.tar.gz")
    with tarfile.open(archive) as tar:
        names = {name.split("/", 1)[1] for name in tar.getnames() if "/" in name}
    expected = ["src/ramseylb/kernels.py", "src/ramseylb/_pykernels.py"]
    expected += [f"src/ramseylb/data/witnesses/{w}" for w in WITNESS_FILES]
    for path in expected:
        assert path in names
