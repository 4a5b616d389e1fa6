import inspect
import re
from pathlib import Path

import finsep

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_section_names_every_exported_function():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    listing = library.split("The functions `finsep` exports:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)`", listing))
    exported = {name for name in finsep.__all__
                if callable(obj := getattr(finsep, name)) and not inspect.isclass(obj)}
    assert not exported - named, f"exported but not named: {sorted(exported - named)}"
    assert not named - exported, f"named but not exported: {sorted(named - exported)}"
