import subprocess
import sys
from pathlib import Path

import hermvi as hv

import fingerprint


def test_digest_is_the_same_within_and_across_processes():
    # a digest that hashed long-double bytes would differ between processes, by their padding
    digest = fingerprint.digest(**fingerprint.SHORT)
    assert len(digest) == 64 and fingerprint.digest(**fingerprint.SHORT) == digest
    paths = [str(Path(hv.__file__).resolve().parents[1]), str(Path(fingerprint.__file__).resolve().parent)]
    code = f"import sys; sys.path[:0] = {paths!r}\nimport fingerprint; print(fingerprint.digest(**fingerprint.SHORT))"
    for _ in range(2):
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == digest
