import os
import subprocess
import sys

from quiverhopf.verify import FAMILY, LAWS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_verification_sweep_script_prints_every_law():
    proc = run_script("run_verification_sweep.py", "--max-len", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sections = proc.stdout.split("== ")[1:]
    assert [s.split(" ", 1)[0] for s in sections] == list(FAMILY)
    for section in sections:
        lines = [line.strip().replace("note: ", "", 1) for line in section.splitlines()]
        for law in LAWS:
            label = law.label.format(sign="unsigned")
            assert any(
                line.startswith(("PASS %s (" % label, "FAIL %s: " % label)) for line in lines
            ), (label, section)


def test_bridge_layers_script_passes():
    proc = run_script("bridge_layers.py", "--max-degree", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passes = [line for line in proc.stdout.splitlines() if line.strip().startswith("PASS ")]
    assert len(passes) == 2, proc.stdout


def test_bridge_layers_script_rejects_degree_below_paths():
    proc = run_script("bridge_layers.py", "--max-degree", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "below 2, the least degree of the paths instance" in proc.stderr


def test_bridge_layers_script_rejects_a_bad_quiver_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        proc = run_script("bridge_layers.py", "--max-degree", "3", "--quiver", str(path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: "), proc.stderr
