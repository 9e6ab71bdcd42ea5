import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_a_finite_gain(capsys):
    # The one python block of the README, run as a reader would paste it.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    value, unit = capsys.readouterr().out.split(" ", 1)
    assert math.isfinite(float(value))
    assert unit == "dB below 4 kHz\n"
