import inspect
import re
import shlex
from pathlib import Path

import finsep
from finsep import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_section_names_every_exported_function():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    listing = library.split("The functions `finsep` exports:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)`", listing))
    exported = {name for name in finsep.__all__
                if callable(obj := getattr(finsep, name)) and not inspect.isclass(obj)}
    assert not exported - named, f"exported but not named: {sorted(exported - named)}"
    assert not named - exported, f"named but not exported: {sorted(named - exported)}"


def test_the_command_line_examples_run(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("finsep ")]
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.run(argv) == 0, line
        out = capsys.readouterr().out
        if "# prints " in line:
            assert line.split("# prints ", 1)[1].strip() in out.splitlines(), line
