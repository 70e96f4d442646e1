"""The CLI tests start child interpreters; they import affgrass from this
checkout too, as the test process does through pyproject's ``pythonpath``."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
