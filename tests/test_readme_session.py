"""The README's command-line session, through tools/readme_session.py."""

import importlib.util
import io
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "readme_session", os.path.join(ROOT, "tools", "readme_session.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_session_command_exits_0_with_digests():
    tool = _tool()
    commands = tool.session_commands()
    assert commands[0][:2] == ["build", "string"] and ["verify", "--trials", "200"] in commands
    out = io.StringIO()
    assert tool.run_session(ROOT, out=out) == [0] * len(commands)
    blocks = out.getvalue().split("$ romstab ")[1:]
    assert len(blocks) == len(commands)
    for args, block in zip(commands, blocks):
        lines = block.splitlines()
        assert lines[0] == " ".join(args)
        assert lines[1] == "exit 0"
        assert lines[2].startswith("stdout ") and len(lines[2].split()[1]) == 64
    written = [line.split()[1] for line in out.getvalue().splitlines() if line.startswith("file ")]
    assert {"model.json", "basis.json", "traj.csv", "weights.json", "reduced.csv",
            "points.json", "samples.json"} <= set(written)
